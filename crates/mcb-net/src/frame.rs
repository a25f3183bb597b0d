//! Self-checking broadcast frames: the detection substrate for unplanned
//! faults.
//!
//! An attached [`FaultPlan`](crate::FaultPlan) only drives injection: no
//! protocol is ever told which faults fire. To detect them from the wire
//! itself, every broadcast can carry a lightweight **frame header** — a sequence tag, the writer id, and a
//! CRC-32 over header and payload — so that a reader can classify each
//! (cycle, channel) observation into one of three [`FrameRead`] outcomes:
//!
//! * [`Clean`](FrameRead::Clean) — a frame arrived and its checksum
//!   verifies: the payload is authentic.
//! * [`Silence`](FrameRead::Silence) — no carrier at all. Against a
//!   schedule whose expected writer is known, silence means the writer is
//!   dead (crashed processor), the channel is dead, or the transmission was
//!   lost.
//! * [`Noise`](FrameRead::Noise) — carrier energy was present but the
//!   checksum fails: the transmission was corrupted in flight. Crucially,
//!   noise still proves that *someone* transmitted, which the epoch
//!   protocol's census uses for positional liveness attribution.
//!
//! Because MCB channels are broadcast media, every processor that reads a
//! channel in a cycle makes the *same* observation — a garbled or missing
//! frame is common knowledge one cycle later, with **no extra cycles
//! spent**. That is what lets the self-healing drivers in `mcb-algos` run
//! detection in-band: protocols are arranged so every live processor reads
//! each round's channel, and any non-[`Clean`](FrameRead::Clean) outcome
//! triggers the epoch reconfiguration protocol simultaneously everywhere.
//!
//! # Engine integration
//!
//! Framing is enabled per-network with
//! [`Network::framing`](crate::Network::framing). The engine then:
//!
//! * charges [`FRAME_HEADER_BITS`] extra bits per delivered message (the
//!   header is overhead in the O(log β) budget, not a separate message);
//! * models in-flight corruption honestly: a `Corrupt` fault leaves the
//!   slot *jammed* instead of silently empty, so framed readers observe
//!   [`Noise`](FrameRead::Noise) where the model's two-way read
//!   ([`ProcCtx::cycle`](crate::ProcCtx::cycle)) observes an
//!   indistinguishable empty channel;
//! * leaves cycle counts untouched — framing costs bits, never cycles.
//!
//! The concrete bit layout below ([`FrameHeader`]) documents what the
//! header would be on a real wire and keeps the engine's
//! [`FRAME_HEADER_BITS`] constant honest; the simulator carries the
//! classification in the channel slot directly rather than serializing
//! every payload.

/// Extra bits charged per delivered message when framing is enabled:
/// a 16-bit sequence tag, a 16-bit source id, and a CRC-32.
pub const FRAME_HEADER_BITS: u32 = 64;

/// Outcome of one framed read of a channel. See the [module docs](self)
/// for the classification semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRead<M> {
    /// No carrier: nothing was transmitted, or the transmission was lost
    /// before reaching the medium (dead channel, dropped frame, dead or
    /// stalled writer).
    Silence,
    /// A frame arrived and verified; the payload is authentic.
    Clean(M),
    /// Carrier energy without a verifiable frame: the transmission was
    /// corrupted in flight. Proves a transmitter was alive this cycle.
    Noise,
}

impl<M> FrameRead<M> {
    /// The payload, when the read was [`Clean`](FrameRead::Clean).
    pub fn clean(self) -> Option<M> {
        match self {
            FrameRead::Clean(m) => Some(m),
            _ => None,
        }
    }

    /// True unless the read was [`Clean`](FrameRead::Clean) — i.e. the
    /// observation is grounds for fault suspicion when a write was
    /// scheduled this cycle.
    pub fn is_suspect(&self) -> bool {
        !matches!(self, FrameRead::Clean(_))
    }
}

/// The concrete frame header layout (64 bits on the wire).
///
/// `seq` is the writer's cycle counter truncated to 16 bits (enough to
/// disambiguate any plausible reordering window; the MCB model is
/// synchronous, so it is a consistency check rather than an ordering
/// mechanism), `src` the writer id, and `crc` a CRC-32 (IEEE polynomial)
/// over the sequence tag, source id, and payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Low 16 bits of the writer's cycle index at transmission time.
    pub seq: u16,
    /// The writer's processor index (truncated to 16 bits).
    pub src: u16,
    /// CRC-32 (IEEE) over `seq`, `src`, and the payload bytes.
    pub crc: u32,
}

impl FrameHeader {
    /// Build the header for a payload, computing the checksum.
    pub fn seal(seq: u16, src: u16, payload: &[u8]) -> FrameHeader {
        FrameHeader {
            seq,
            src,
            crc: frame_crc(seq, src, payload),
        }
    }

    /// Pack into the 64-bit wire form: `seq | src << 16 | crc << 32`.
    pub fn encode(self) -> u64 {
        u64::from(self.seq) | u64::from(self.src) << 16 | u64::from(self.crc) << 32
    }

    /// Unpack from the 64-bit wire form.
    pub fn decode(word: u64) -> FrameHeader {
        FrameHeader {
            seq: word as u16,
            src: (word >> 16) as u16,
            crc: (word >> 32) as u32,
        }
    }

    /// True when the checksum verifies against `payload`.
    pub fn verify(&self, payload: &[u8]) -> bool {
        self.crc == frame_crc(self.seq, self.src, payload)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over the header
/// fields and payload, bit-serial — the frame is tiny, table-free is fine.
pub fn frame_crc(seq: u16, src: u16, payload: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut feed = |byte: u8| {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    };
    for b in seq.to_le_bytes() {
        feed(b);
    }
    for b in src.to_le_bytes() {
        feed(b);
    }
    for &b in payload {
        feed(b);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 is the standard check value;
        // with the seq/src prefix zeroed out the tail must still chain the
        // same polynomial, so pin the full computation instead.
        let c = frame_crc(0, 0, b"123456789");
        let again = frame_crc(0, 0, b"123456789");
        assert_eq!(c, again);
        assert_ne!(c, frame_crc(0, 0, b"123456780"));
        assert_ne!(c, frame_crc(1, 0, b"123456789"), "seq is covered");
        assert_ne!(c, frame_crc(0, 1, b"123456789"), "src is covered");
    }

    #[test]
    fn pure_payload_crc_is_ieee() {
        // With an empty prefix contribution removed, validate the raw
        // polynomial against the canonical "123456789" check value by
        // recomputing it inline.
        let mut crc = 0xFFFF_FFFFu32;
        for &b in b"123456789" {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        assert_eq!(!crc, 0xCBF4_3926);
    }

    #[test]
    fn header_round_trips_and_verifies() {
        let h = FrameHeader::seal(513, 7, b"payload");
        assert_eq!(FrameHeader::decode(h.encode()), h);
        assert!(h.verify(b"payload"));
        assert!(!h.verify(b"payloae"), "bit flip must fail the CRC");
        let mut tampered = h;
        tampered.src ^= 1;
        assert!(!tampered.verify(b"payload"), "header flip must fail too");
    }

    #[test]
    fn frame_read_helpers() {
        assert_eq!(FrameRead::Clean(5u64).clean(), Some(5));
        assert_eq!(FrameRead::<u64>::Silence.clean(), None);
        assert_eq!(FrameRead::<u64>::Noise.clean(), None);
        assert!(!FrameRead::Clean(1u64).is_suspect());
        assert!(FrameRead::<u64>::Silence.is_suspect());
        assert!(FrameRead::<u64>::Noise.is_suspect());
    }
}
