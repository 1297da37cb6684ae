//! TREC-like topic queries over a synthetic corpus.

/// A natural-language-model query derived from one topic: a bag of
/// `(term name, f_{q,t})` pairs, mirroring the paper's TREC queries
/// where "terms may have different frequencies in queries, e.g. due to
/// relevance feedback" (§2.2).
#[derive(Clone, Debug)]
pub struct TopicQuery {
    /// Index of the topic this query was built from (keys the relevance
    /// judgments).
    pub topic: usize,
    /// Query terms with frequencies, in descending topical salience.
    pub terms: Vec<(String, u32)>,
}

impl TopicQuery {
    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` for the (never generated) empty query.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates term names.
    pub fn term_names(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let q = TopicQuery {
            topic: 3,
            terms: vec![("xa".into(), 3), ("xb".into(), 1)],
        };
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.term_names().collect::<Vec<_>>(), ["xa", "xb"]);
    }
}
