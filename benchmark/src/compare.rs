//! `compare A.json B.json`: applies each end-to-end metric's bound to
//! two output documents, workload by workload.

use crate::catalogue::{Better, END_TO_END, PER_LAYER};
use crate::json::{at, num_at};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::fmt::Write as _;

/// Compares baseline `a` against candidate `b`. Returns the table and
/// the number of problems: regressions beyond a bound, metrics missing
/// from either document, failed operations, and — when both ran the
/// same seed and scale — single-session counts or answer digests that
/// are not bit-for-bit equal.
pub fn compare(a: &Value, b: &Value) -> (String, usize) {
    let mut out = String::new();
    let mut problems = 0usize;
    let same_inputs = ["seed", "scale", "quick"]
        .iter()
        .all(|k| at(a, &[k]).is_some() && at(a, &[k]) == at(b, &[k]));
    let _ = writeln!(
        out,
        "{:<17} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "worse", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let path = ["workloads", w.name, "metrics", m.name, "value"];
            let (Some(va), Some(vb)) = (num_at(a, &path), num_at(b, &path)) else {
                let _ = writeln!(out, "{:<17} {:<24} missing from a document", w.name, m.name);
                problems += 1;
                continue;
            };
            let worse = match m.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let regressed = worse > m.bound;
            problems += usize::from(regressed);
            let _ = writeln!(
                out,
                "{:<17} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>+8.4} {:>6.2}  {}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                worse,
                m.bound,
                if regressed { "REGRESSION" } else { "ok" }
            );
        }
        for (label, doc) in [("A", a), ("B", b)] {
            if num_at(doc, &["workloads", w.name, "failed"]) != Some(0.0) {
                let _ = writeln!(out, "{:<17} failed operations in {label}", w.name);
                problems += 1;
            }
        }
        let exact = |doc| at(doc, &["workloads", w.name, "exact"]);
        if same_inputs && exact(a) != exact(b) {
            let _ = writeln!(out, "{:<17} exact counts or answer digest differ", w.name);
            problems += 1;
        }
    }
    (out, problems)
}

/// `agree A.json B.json`: two runs of the same code on the same seed
/// must name every catalogued metric and agree bit-for-bit on stream
/// digests and on single-session counts and answer digests. Timings
/// are not compared (that is `compare`'s job, on full-length runs).
pub fn agree(a: &Value, b: &Value) -> Result<(), String> {
    for w in &WORKLOADS {
        for doc in [a, b] {
            for m in &END_TO_END {
                if num_at(doc, &["workloads", w.name, "metrics", m.name, "value"]).is_none() {
                    return Err(format!("{}: end-to-end metric {} missing", w.name, m.name));
                }
            }
            for m in &PER_LAYER {
                if num_at(doc, &["workloads", w.name, "per_layer", m.name]).is_none() {
                    return Err(format!("{}: per-layer metric {} missing", w.name, m.name));
                }
            }
            if num_at(doc, &["workloads", w.name, "failed"]) != Some(0.0) {
                return Err(format!("{}: failed operations", w.name));
            }
        }
        for key in ["exact", "stream_digest"] {
            let path = ["workloads", w.name, key];
            if at(a, &path) != at(b, &path) {
                return Err(format!("{}: `{key}` differs between the runs", w.name));
            }
        }
    }
    Ok(())
}
