//! The boolean query model (§2.1) — the historical alternative the
//! paper contrasts with natural-language ranking.
//!
//! "Early commercial IR systems used a query model based on boolean
//! algebra. For example, the query `t1 ∧ t2` would return, in no
//! particular order, those documents containing both terms, whereas
//! `t1 ∨ t2` would return all documents containing either term."
//!
//! Boolean evaluation is *safe*: there is exactly one correct answer,
//! so — like a relational query — it must read **every page of every
//! referenced term's inverted list**. That is precisely why no unsafe
//! DF/BAF-style optimization applies, and why the paper adopts the
//! natural-language model. The `quickstart`-adjacent example
//! `boolean_vs_ranked` and the unit tests here make the contrast
//! concrete: boolean reads = total list pages, always.
//!
//! Supported syntax (parser): `AND`/`OR` (case-insensitive), `AND`
//! binding tighter than `OR`, parentheses, bare words as terms. Words
//! go through the caller's analysis before parsing if desired; the
//! parser itself treats any non-operator token as a term.

use crate::stats::EvalStats;
use ir_index::InvertedIndex;
use ir_storage::{QueryBuffer, QueryBufferExt};
use ir_types::{DocId, IrError, IrResult, ReadPlan};
use std::collections::BTreeSet;

/// A boolean query tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BooleanQuery {
    /// A single term (by name; unknown terms match nothing).
    Term(String),
    /// Conjunction: documents containing *all* operands.
    And(Vec<BooleanQuery>),
    /// Disjunction: documents containing *any* operand.
    Or(Vec<BooleanQuery>),
}

/// Result of a boolean evaluation: the (unranked) matching documents,
/// ascending, plus the access counters.
#[derive(Clone, Debug, Default)]
pub struct BooleanResult {
    /// Matching documents ("in no particular order" per the paper;
    /// sorted ascending here for determinism).
    pub docs: Vec<DocId>,
    /// Page/entry counters — disk reads always equal the total pages of
    /// the referenced lists.
    pub stats: EvalStats,
}

impl BooleanQuery {
    /// Parses `AND`/`OR`/parenthesis syntax; bare tokens are terms.
    ///
    /// # Errors
    /// [`IrError::InvalidConfig`] on syntax errors (dangling operators,
    /// unbalanced parentheses, empty input).
    pub fn parse(input: &str) -> IrResult<BooleanQuery> {
        let tokens = lex(input)?;
        let mut parser = Parser { tokens, pos: 0 };
        let q = parser.or_expr()?;
        if parser.pos != parser.tokens.len() {
            return Err(IrError::InvalidConfig(format!(
                "unexpected trailing input at token {}",
                parser.pos
            )));
        }
        Ok(q)
    }

    /// Evaluates against an index through a buffer pool. Being a safe
    /// query model, this reads every page of every referenced list.
    pub fn evaluate<B: QueryBuffer>(
        &self,
        index: &InvertedIndex,
        buffer: &mut B,
    ) -> IrResult<BooleanResult> {
        let mut stats = EvalStats::default();
        let docs = self.eval_inner(index, buffer, &mut stats)?;
        Ok(BooleanResult {
            docs: docs.into_iter().collect(),
            stats,
        })
    }

    fn eval_inner<B: QueryBuffer>(
        &self,
        index: &InvertedIndex,
        buffer: &mut B,
        stats: &mut EvalStats,
    ) -> IrResult<BTreeSet<DocId>> {
        match self {
            BooleanQuery::Term(name) => {
                let mut docs = BTreeSet::new();
                let Some(id) = index.lexicon().lookup(name) else {
                    return Ok(docs); // unknown terms match nothing
                };
                let entry = index.lexicon().entry(id)?;
                if entry.stopped {
                    return Ok(docs);
                }
                if entry.n_pages > 0 {
                    // Safe evaluation reads the whole list: one
                    // full-list plan per term. Boolean queries carry no
                    // term weights, so the entries are unhinted.
                    let plan = ReadPlan::for_term_pages(id, entry.n_pages, None);
                    let fetched = buffer.fetch_batch(&plan)?;
                    stats.batches_issued += 1;
                    for (page, how) in &fetched {
                        stats.pages_processed += 1;
                        match how {
                            ir_storage::FetchOutcome::Miss => stats.disk_reads += 1,
                            ir_storage::FetchOutcome::Hit => stats.buffer_hits += 1,
                        }
                        for posting in page.postings() {
                            stats.entries_processed += 1;
                            docs.insert(posting.doc);
                        }
                    }
                }
                stats.terms_scanned += 1;
                Ok(docs)
            }
            BooleanQuery::And(parts) => {
                let mut iter = parts.iter();
                let mut acc = match iter.next() {
                    Some(q) => q.eval_inner(index, buffer, stats)?,
                    None => return Ok(BTreeSet::new()),
                };
                for q in iter {
                    // No short-circuit on empty acc: a safe evaluator
                    // may skip remaining operands, but the paper's point
                    // is the data *referenced* must be readable — keep
                    // the standard optimization anyway.
                    if acc.is_empty() {
                        break;
                    }
                    let rhs = q.eval_inner(index, buffer, stats)?;
                    acc = acc.intersection(&rhs).copied().collect();
                }
                Ok(acc)
            }
            BooleanQuery::Or(parts) => {
                let mut acc = BTreeSet::new();
                for q in parts {
                    acc.extend(q.eval_inner(index, buffer, stats)?);
                }
                Ok(acc)
            }
        }
    }

    /// All distinct term names referenced by the query.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            BooleanQuery::Term(t) => out.push(t),
            BooleanQuery::And(ps) | BooleanQuery::Or(ps) => {
                for p in ps {
                    p.collect_terms(out);
                }
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Word(String),
    And,
    Or,
    Open,
    Close,
}

fn lex(input: &str) -> IrResult<Vec<Token>> {
    let mut out = Vec::new();
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut Vec<Token>| {
        if word.is_empty() {
            return;
        }
        let tok = match word.to_ascii_uppercase().as_str() {
            "AND" | "&" => Token::And,
            "OR" | "|" => Token::Or,
            _ => Token::Word(std::mem::take(word)),
        };
        if !matches!(tok, Token::Word(_)) {
            word.clear();
        }
        out.push(tok);
    };
    for c in input.chars() {
        match c {
            '(' => {
                flush(&mut word, &mut out);
                out.push(Token::Open);
            }
            ')' => {
                flush(&mut word, &mut out);
                out.push(Token::Close);
            }
            c if c.is_whitespace() => flush(&mut word, &mut out),
            c => word.push(c),
        }
    }
    flush(&mut word, &mut out);
    if out.is_empty() {
        return Err(IrError::InvalidConfig("empty boolean query".into()));
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn or_expr(&mut self) -> IrResult<BooleanQuery> {
        let mut parts = vec![self.and_expr()?];
        while self.peek() == Some(&Token::Or) {
            self.pos += 1;
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            BooleanQuery::Or(parts)
        })
    }

    fn and_expr(&mut self) -> IrResult<BooleanQuery> {
        let mut parts = vec![self.atom()?];
        while self.peek() == Some(&Token::And) {
            self.pos += 1;
            parts.push(self.atom()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            BooleanQuery::And(parts)
        })
    }

    fn atom(&mut self) -> IrResult<BooleanQuery> {
        match self.tokens.get(self.pos).cloned() {
            Some(Token::Word(w)) => {
                self.pos += 1;
                Ok(BooleanQuery::Term(w))
            }
            Some(Token::Open) => {
                self.pos += 1;
                let inner = self.or_expr()?;
                if self.tokens.get(self.pos) != Some(&Token::Close) {
                    return Err(IrError::InvalidConfig("unbalanced parenthesis".into()));
                }
                self.pos += 1;
                Ok(inner)
            }
            other => Err(IrError::InvalidConfig(format!(
                "expected a term or '(', found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_index::{BuildOptions, IndexBuilder};
    use ir_storage::PolicyKind;
    use ir_types::IndexParams;

    fn index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(["stock", "price"]); // d0
        b.add_document(["stock", "bond"]); // d1
        b.add_document(["bond", "yield"]); // d2
        b.add_document(["stock", "price", "bond"]); // d3
        b.build(BuildOptions {
            params: IndexParams::with_page_size(2),
            ..BuildOptions::default()
        })
        .unwrap()
    }

    fn eval(idx: &InvertedIndex, q: &str) -> BooleanResult {
        let parsed = BooleanQuery::parse(q).unwrap();
        let mut buf = idx.make_buffer(16, PolicyKind::Lru).unwrap();
        parsed.evaluate(idx, &mut buf).unwrap()
    }

    fn docs(r: &BooleanResult) -> Vec<u32> {
        r.docs.iter().map(|d| d.0).collect()
    }

    #[test]
    fn conjunction_and_disjunction() {
        let idx = index();
        assert_eq!(docs(&eval(&idx, "stock AND price")), [0, 3]);
        assert_eq!(docs(&eval(&idx, "stock OR yield")), [0, 1, 2, 3]);
        assert_eq!(docs(&eval(&idx, "price AND yield")), Vec::<u32>::new());
    }

    #[test]
    fn precedence_and_parentheses() {
        let idx = index();
        // AND binds tighter: yield OR (stock AND price).
        assert_eq!(docs(&eval(&idx, "yield OR stock AND price")), [0, 2, 3]);
        // Parentheses override: (yield OR stock) AND price.
        assert_eq!(docs(&eval(&idx, "(yield OR stock) AND price")), [0, 3]);
    }

    #[test]
    fn boolean_reads_every_referenced_page() {
        // The safe model's cost: every page of every term in the query.
        let idx = index();
        let r = eval(&idx, "stock AND price");
        let lex = idx.lexicon();
        let expected: u64 = ["stock", "price"]
            .iter()
            .map(|n| u64::from(lex.entry(lex.lookup(n).unwrap()).unwrap().n_pages))
            .sum();
        assert_eq!(r.stats.disk_reads, expected);
        assert_eq!(r.stats.pages_processed, expected);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let idx = index();
        assert!(docs(&eval(&idx, "zebra")).is_empty());
        assert_eq!(docs(&eval(&idx, "zebra OR stock")), [0, 1, 3]);
        assert!(docs(&eval(&idx, "zebra AND stock")).is_empty());
    }

    #[test]
    fn parser_errors() {
        assert!(BooleanQuery::parse("").is_err());
        assert!(BooleanQuery::parse("AND stock").is_err());
        assert!(BooleanQuery::parse("stock AND").is_err());
        assert!(BooleanQuery::parse("(stock OR bond").is_err());
        assert!(
            BooleanQuery::parse("stock bond").is_err(),
            "missing operator"
        );
    }

    #[test]
    fn terms_collects_distinct_names() {
        let q = BooleanQuery::parse("a AND (b OR a) AND c").unwrap();
        assert_eq!(q.terms(), ["a", "b", "c"]);
    }

    #[test]
    fn operator_symbols_accepted() {
        let idx = index();
        assert_eq!(docs(&eval(&idx, "stock & price")), [0, 3]);
        assert_eq!(docs(&eval(&idx, "price | yield")), [0, 2, 3]);
    }
}
