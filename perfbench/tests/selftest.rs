//! Self-test of the benchmark: a tiny-scale pass of every workload
//! prints every metric `BENCHMARK.json` names, with its unit, and a
//! deliberately wrong reference energy is counted as a failure.

use perfbench::json::{self, Json};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use std::process::Command;

fn bench_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(b: &Json, key: &str) -> Vec<(String, String)> {
    b.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

fn workloads(b: &Json) -> Vec<String> {
    b.get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// One tiny run; returns the parsed result line.
fn run(workload: &str, trace: u8, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.6"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("result line `{last}`: {e}"))
}

fn count(r: &Json, key: &str) -> f64 {
    r.get(key).and_then(Json::as_f64).unwrap()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let b = bench_json();
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_units(&b, "end_to_end"), own(END_TO_END));
    assert_eq!(names_units(&b, "per_layer"), own(PER_LAYER));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let b = bench_json();
    for w in workloads(&b) {
        for (trace, table) in [(0, "end_to_end"), (1, "per_layer")] {
            let r = run(&w, trace, &[]);
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}: {r:?}");
            assert_eq!(count(&r, "failed"), 0.0, "{w}");
            assert!(count(&r, "attempted") >= 1.0, "{w}");
            let metrics = r.get("metrics").expect("metrics");
            let want = names_units(&b, table);
            let Json::Obj(got) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(got.len(), want.len(), "{w} trace {trace}: metric count");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: `{name}` missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w}: `{name}` = {v:?}");
                if table == "end_to_end" {
                    assert!(v.unwrap() > 0.0, "{w}: `{name}` must never be 0");
                }
            }
        }
    }
}

#[test]
fn wrong_reference_energy_is_counted_as_failed() {
    for w in workloads(&bench_json()) {
        let r = run(&w, 0, &["--bad-reference"]);
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "{w}");
        let attempted = count(&r, "attempted");
        assert!(attempted >= 1.0, "{w}");
        assert_eq!(count(&r, "failed"), attempted, "{w}: every check must fail");
    }
}
