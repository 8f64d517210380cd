//! The checked-in `BENCH_perf.json` must parse, with every field typed.
//!
//! The report is machine-read (CI archives it), and a hand-rolled
//! emitter once shipped it with an unquoted string value — syntactically
//! invalid, silently, for a whole release. This test parses the real
//! artifact at the repository root with the same parser CI uses and
//! checks every field of every row against the schema `perf_gate`
//! writes: the host, then one A/B comparison per row.

use hetero_bench::harness::repo_root;
use simkit::json::{parse, Json};

#[test]
fn checked_in_bench_report_is_valid_json() {
    let path = repo_root().join("BENCH_perf.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must exist and be readable: {e}", path.display()));
    let doc = parse(&text).unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));

    let cores = doc.get("host_cores").and_then(Json::as_u64);
    assert!(cores.is_some_and(|n| n > 0), "`host_cores` must be a count");
    let model = doc.get("cpu_model").and_then(Json::as_str);
    assert!(model.is_some_and(|m| !m.is_empty() && m != "false"));

    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .expect("`rows` array");
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("name").and_then(Json::as_str).expect("`name` string"))
        .collect();
    // Every gated comparison is present, with the threshold it enforces.
    for (name, target) in [
        ("metrics_overhead", 3.0),
        ("trace_overhead", 3.0),
        ("skip_speedup", 3.0),
        ("lowrate_metrics_overhead", 6.0),
        ("cache_speedup", 10.0),
        ("warm_start_speedup", 2.0),
    ] {
        let row = &rows[names.iter().position(|&n| n == name).expect(name)];
        assert_eq!(
            row.get("target").and_then(Json::as_f64),
            Some(target),
            "{name}"
        );
    }
    assert!(names.contains(&"trace_full_overhead"));

    for row in rows {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .expect("checked above");
        let str_field = |k| row.get(k).and_then(Json::as_str);
        let num = |k| row.get(k).and_then(Json::as_f64);
        for key in ["system", "work_unit", "unit", "verdict"] {
            assert!(str_field(key).is_some(), "{name}: `{key}` must be a string");
        }
        for key in ["nodes", "work", "rounds"] {
            let v = row.get(key).and_then(Json::as_u64);
            assert!(v.is_some_and(|n| n > 0), "{name}: `{key}` must be a count");
        }
        let [q1, median, q3] = ["q1", "median", "q3"].map(|k| num(k).expect(k));
        assert!(
            q1 <= median && median <= q3,
            "{name}: quartiles out of order"
        );
        let target = row.get("target").expect("`target` present");
        assert!(
            *target == Json::Null || target.as_f64().is_some(),
            "{name}: target"
        );
        let verdicts: &[&str] = match target {
            Json::Null => &["reported"],
            _ => &["pass", "fail", "warn"],
        };
        assert!(verdicts.contains(&str_field("verdict").unwrap()), "{name}");
        assert!(["pct", "x"].contains(&str_field("unit").unwrap()), "{name}");
        for arm in ["a", "b"] {
            let arm = row.get(arm).expect("arm object");
            assert!(arm.get("arm").and_then(Json::as_str).is_some(), "{name}");
            for key in ["median_secs", "work_per_sec"] {
                let v = arm.get(key).and_then(Json::as_f64);
                assert!(
                    v.is_some_and(|x| x > 0.0),
                    "{name}: `{key}` must be positive"
                );
            }
        }
    }
}
