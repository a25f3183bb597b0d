//! Order statistics, process probes and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The largest of `values`; `0.0` for an empty sample.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A numeric field of `/proc/self/status` (e.g. `VmHWM` in kB, `Threads`).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One named, unit-tagged metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics in emission order; a name set twice keeps the last value.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = Metric { name, unit, value },
            None => self.0.push(Metric { name, unit, value }),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// The result line: `{"correct": true, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut m = Metrics::default();
        m.set("op_p50_ms", "ms", 1.25);
        m.set("ops_per_s", "1/s", 100.0);
        assert_eq!(
            m.result_line(10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ops_per_s\": {\"value\": 100.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn proc_status_reads_this_process() {
        assert!(proc_status("Threads").unwrap_or(0) >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
