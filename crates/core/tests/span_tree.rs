//! The span tree's one consumer. Spans are inert until a sink is
//! installed, and the sink is process-global and cannot be removed, so
//! this binary holds a single test that walks both states in order:
//! nobody listening, then a `MemorySink`.

use ir_core::eval::{evaluate, EvalOptions};
use ir_core::{Algorithm, Query, QueryResult};
use ir_index::{BuildOptions, IndexBuilder, InvertedIndex};
use ir_observe::{MemorySink, SpanKind, SpanRecord};
use ir_storage::PolicyKind;
use ir_types::{FilterParams, IndexParams};
use std::fmt;
use std::sync::Arc;

/// A span name that must never be formatted.
struct Unformattable;

impl fmt::Display for Unformattable {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        panic!("an inert span formatted its name");
    }
}

/// Three terms over two-entry pages: "rare" one page, "mid" two,
/// "commn" four.
fn index() -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for d in 0..8u32 {
        let mut doc = vec!["commn"; 1 + (d % 3) as usize];
        if d < 4 {
            doc.extend(std::iter::repeat_n("mid", 1 + d as usize));
        }
        if d < 2 {
            doc.push("rare");
        }
        b.add_document(doc);
        b.add_document(["filler"]);
    }
    b.build(BuildOptions {
        params: IndexParams::with_page_size(2),
        ..BuildOptions::default()
    })
    .unwrap()
}

fn attr(span: &SpanRecord, key: &str) -> i64 {
    let found = span.attrs.iter().find(|(k, _)| k == key);
    found
        .unwrap_or_else(|| panic!("{} has no {key} attr", span.name))
        .1
}

/// Checks one evaluation's spans against its result: one `Query` root
/// named `name`, a `ListRead` per scanned term carrying the trace
/// row's counts, each under the span `parent_of` names for its row.
fn check_tree(
    spans: &[SpanRecord],
    name: &str,
    result: &QueryResult,
    parent_of: impl Fn(usize) -> u64,
) -> u64 {
    let of_kind = |kind| spans.iter().filter(move |s| s.kind == kind);
    let queries: Vec<_> = of_kind(SpanKind::Query).collect();
    assert_eq!(queries.len(), 1, "{name}: one query span");
    let query = queries[0];
    assert_eq!((query.name.as_str(), query.parent), (name, 0));
    assert_eq!(attr(query, "terms"), result.trace.len() as i64);
    assert_eq!(attr(query, "disk_reads"), result.stats.disk_reads as i64);

    let scanned: Vec<_> = result
        .trace
        .iter()
        .enumerate()
        .filter(|(_, row)| row.pages_processed > 0)
        .collect();
    let reads: Vec<_> = of_kind(SpanKind::ListRead).collect();
    assert_eq!(reads.len(), scanned.len(), "{name}: one list-read per scan");
    // Spans arrive in completion order, which is processing order.
    for (read, (i, row)) in reads.iter().zip(&scanned) {
        assert_eq!(read.name, format!("term:{}", row.term.0));
        assert_eq!(read.parent, parent_of(*i), "{}: parent", read.name);
        assert_eq!(
            attr(read, "pages_processed"),
            i64::from(row.pages_processed)
        );
        assert_eq!(attr(read, "pages_read"), i64::from(row.pages_read));
    }
    let entries: i64 = reads.iter().map(|r| attr(r, "entries")).sum();
    assert_eq!(entries, result.stats.entries_processed as i64);
    query.id
}

#[test]
fn spans_are_inert_without_a_sink_and_a_faithful_tree_with_one() {
    let index = index();
    let named: Vec<(String, u32)> = ["rare", "mid", "commn"]
        .iter()
        .map(|t| (t.to_string(), 1))
        .collect();
    let query = Query::from_named(&index, &named);
    assert_eq!(query.len(), 3);
    let options = EvalOptions {
        params: FilterParams::OFF,
        ..EvalOptions::default()
    };
    let run = |algorithm| {
        let mut pool = index.make_buffer(16, PolicyKind::Rap).unwrap();
        evaluate(algorithm, &index, &mut pool, &query, options).unwrap()
    };

    // Nobody listens: names are never formatted, no span has an id,
    // attributes vanish.
    {
        let mut root = ir_observe::tracer().span(SpanKind::Other, Unformattable);
        let mut child = root.child(SpanKind::Other, Unformattable);
        root.attr("n", 1);
        child.attr("n", 2);
        assert_eq!((root.id(), child.id()), (0, 0));
        assert_eq!(child.child(SpanKind::Other, Unformattable).id(), 0);
    }
    let unobserved = run(Algorithm::Baf);

    let sink = Arc::new(MemorySink::new());
    assert!(ir_observe::set_span_sink(sink.clone()).is_none());

    // BAF: query > round:i > term:<id>.
    let baf = run(Algorithm::Baf);
    let spans = sink.take();
    let rounds: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::TermSelect)
        .collect();
    assert_eq!(rounds.len(), 3, "one term-select span per round");
    let query_id = check_tree(&spans, "baf", &baf, |i| rounds[i].id);
    for (i, (round, row)) in rounds.iter().zip(&baf.trace).enumerate() {
        assert_eq!(round.name, format!("round:{i}"));
        assert_eq!(round.parent, query_id);
        assert_eq!(attr(round, "term"), i64::from(row.term.0));
        assert_eq!(attr(round, "est_reads"), i64::from(row.est_reads));
    }
    // Every `b_t` asked is asked in some round, and a round that reused
    // the previous answers says 0.
    let inquired: i64 = rounds.iter().map(|r| attr(r, "inquired")).sum();
    assert_eq!(inquired, baf.stats.bt_inquiries as i64);
    assert_eq!(attr(rounds[0], "inquired"), 3, "the first round asks all");
    assert_eq!(spans.len(), 1 + 3 + 3, "nothing else was recorded");
    // The evaluation and the spans above, before the sink, took no id:
    // this process's first live span is number 1.
    assert_eq!(spans.iter().map(|s| s.id).min(), Some(1));
    // Listening changes no answer.
    assert_eq!(baf.stats, unobserved.stats);
    assert_eq!(baf.hits, unobserved.hits);

    // DF: query > term:<id>.
    let df = run(Algorithm::Df);
    let spans = sink.take();
    assert_eq!(spans.len(), 1 + 3);
    let query_id = spans.last().expect("the query span closes last").id;
    assert_eq!(check_tree(&spans, "df", &df, |_| query_id), query_id);
}
