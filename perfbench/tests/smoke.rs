//! Smoke tests of the benchmark binary: a tiny run of every workload
//! emits every metric `BENCHMARK.json` names, with its unit, and the
//! oracle trips on a deliberately corrupted result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A JSON value (enough of JSON for `BENCHMARK.json` and the result line).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(v);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let word = if self.s[self.i..].starts_with(b"true") {
                    Json::Bool(true)
                } else if self.s[self.i..].starts_with(b"false") {
                    Json::Bool(false)
                } else {
                    Json::Null
                };
                self.i += match word {
                    Json::Bool(true) | Json::Null => 4,
                    _ => 5,
                };
                word
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Parser::parse(&text)
}

/// `(name, unit)` of every metric in the given section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    spec()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

/// Every workload the binary runs. `BENCHMARK.json` times a subset; the
/// rest still run in traced legs and by hand, so they are smoke-tested too.
const WORKLOADS: [&str; 4] = ["serve_trickle", "serve_storm", "sort_bulk", "sim_sweep"];

#[test]
fn declared_workloads_are_runnable() {
    for w in spec().get("workloads").arr() {
        let name = w.get("name").str();
        assert!(
            WORKLOADS.contains(&name),
            "BENCHMARK.json names unknown workload {name}"
        );
    }
}

fn bench(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcb-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or("")
        .to_owned()
}

/// Check a result line against the declared metrics: exactly those
/// names, each with its declared unit and a finite value.
fn check_result(out: &Output, want: &[(String, String)], what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = Parser::parse(&last_line(out));
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
    let Json::Num(attempted) = result.get("attempted") else {
        panic!("{what}: attempted missing");
    };
    assert!(*attempted >= 1.0, "{what}: nothing attempted");
    assert!(matches!(result.get("failed"), Json::Num(_)), "{what}");
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("{what}: metrics missing");
    };
    for (name, unit) in want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} not emitted"));
        assert_eq!(m.get("unit").str(), unit, "{what}: unit of {name}");
        assert!(
            matches!(m.get("value"), Json::Num(v) if v.is_finite()),
            "{what}: value of {name}"
        );
    }
    assert_eq!(metrics.len(), want.len(), "{what}: extra metrics emitted");
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        check_result(&bench(w, 0, &[]), &want, w);
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    check_result(
        &bench("sim_sweep", 1, &[]),
        &declared("per_layer"),
        "traced run",
    );
}

#[test]
fn oracle_trips_on_a_corrupted_result() {
    for w in WORKLOADS {
        let out = bench(w, 0, &["--corrupt"]);
        assert!(!out.status.success(), "{w}: corrupted run must fail");
        assert!(
            !last_line(&out).starts_with("{\"correct\""),
            "{w}: a corrupted run must not print a result"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_mcb-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
