//! `BENCHMARK.json` and the compiled-in catalogue name the same
//! workloads and metrics, with the same units, directions and bounds.

use buffir_benchmark::catalogue::{Metric, END_TO_END, PER_LAYER};
use buffir_benchmark::json::{at, Doc};
use buffir_benchmark::workloads::WORKLOADS;
use serde::Value;
use std::path::Path;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Doc::load(&path).expect("BENCHMARK.json parses").0
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match at(doc, &[key]) {
        Some(Value::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn assert_metrics(listed: &[Value], catalogue: &[Metric], bounded: bool) {
    assert_eq!(listed.len(), catalogue.len());
    for (v, m) in listed.iter().zip(catalogue) {
        assert_eq!(text(v, "name"), m.name);
        assert_eq!(text(v, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(v, "better"), m.better.as_str(), "{}", m.name);
        match v.field("bound") {
            Some(Value::Num(b)) if bounded => assert_eq!(*b, m.bound, "{}", m.name),
            None if !bounded => {}
            other => panic!("{}: unexpected bound {other:?}", m.name),
        }
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = manifest();
    assert_metrics(items(&doc, "end_to_end"), &END_TO_END, true);
    assert_metrics(items(&doc, "per_layer"), &PER_LAYER, false);
    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (v, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(v, "name"), w.name);
        assert_eq!(text(v, "why"), w.why);
        assert!(w.why.len() <= 200, "{}: why too long", w.name);
    }
}

#[test]
fn setup_time_is_an_end_to_end_metric_with_the_largest_bound() {
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
}
