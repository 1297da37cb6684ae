//! Stop-word lists \[Fox92\].
//!
//! The paper removes the 100 most frequent terms of the collection as
//! stop words (§4.2, footnote 11) — a *collection-derived* list rather
//! than a standard one. [`StopList`] supports both: build one from
//! document frequencies with [`StopList::top_k_by_frequency`], or start
//! from the small standard English list in [`StopList::standard`].

use std::collections::HashSet;

/// A set of terms to exclude from indexing and querying.
#[derive(Debug, Clone, Default)]
pub struct StopList {
    words: HashSet<String>,
}

/// A compact standard English stop list (function words only). The
/// paper's own list was collection-derived; this one exists for callers
/// indexing real text without a frequency pass.
const STANDARD: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "all", "am", "an", "and", "any", "are",
    "as", "at", "be", "because", "been", "before", "being", "below", "between", "both", "but",
    "by", "can", "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from",
    "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how",
    "i", "if", "in", "into", "is", "it", "its", "just", "me", "more", "most", "my", "no", "nor",
    "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours", "out", "over",
    "own", "s", "same", "she", "should", "so", "some", "such", "t", "than", "that", "the", "their",
    "theirs", "them", "then", "there", "these", "they", "this", "those", "through", "to", "too",
    "under", "until", "up", "very", "was", "we", "were", "what", "when", "where", "which", "while",
    "who", "whom", "why", "will", "with", "you", "your", "yours",
];

impl StopList {
    /// An empty stop list (nothing removed).
    pub fn empty() -> Self {
        StopList::default()
    }

    /// The built-in standard English list.
    pub fn standard() -> Self {
        StopList {
            words: STANDARD.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Builds a stop list from an explicit set of words.
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StopList {
            words: words.into_iter().map(Into::into).collect(),
        }
    }

    /// The paper's construction: the `k` terms with the highest document
    /// frequency `f_t` become stop words (`k = 100` in §4.2).
    ///
    /// `doc_freqs` pairs each term with its `f_t`; ties are broken
    /// alphabetically so the list is deterministic.
    pub fn top_k_by_frequency<'a>(
        doc_freqs: impl IntoIterator<Item = (&'a str, u32)>,
        k: usize,
    ) -> Self {
        let mut ranked: Vec<(&str, u32)> = doc_freqs.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        StopList {
            words: ranked
                .into_iter()
                .take(k)
                .map(|(w, _)| w.to_string())
                .collect(),
        }
    }

    /// Is `word` a stop word?
    #[inline]
    pub fn contains(&self, word: &str) -> bool {
        self.words.contains(word)
    }

    /// Number of stop words in the list.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when the list removes nothing.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over the stop words (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.words.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_contains_function_words() {
        let sl = StopList::standard();
        for w in ["the", "of", "and", "in", "to"] {
            assert!(sl.contains(w), "{w} should be a stop word");
        }
        assert!(!sl.contains("stockmarket"));
    }

    #[test]
    fn top_k_takes_most_frequent() {
        let freqs = [("the", 1000), ("market", 40), ("of", 900), ("rare", 1)];
        let sl = StopList::top_k_by_frequency(freqs, 2);
        assert_eq!(sl.len(), 2);
        assert!(sl.contains("the"));
        assert!(sl.contains("of"));
        assert!(!sl.contains("market"));
    }

    #[test]
    fn top_k_tie_break_is_alphabetical() {
        let freqs = [("b", 5), ("a", 5), ("c", 5)];
        let sl = StopList::top_k_by_frequency(freqs, 2);
        assert!(sl.contains("a"));
        assert!(sl.contains("b"));
        assert!(!sl.contains("c"));
    }

    #[test]
    fn top_k_larger_than_vocab_is_whole_vocab() {
        let sl = StopList::top_k_by_frequency([("x", 1)], 100);
        assert_eq!(sl.len(), 1);
    }

    #[test]
    fn empty_list_removes_nothing() {
        let sl = StopList::empty();
        assert!(sl.is_empty());
        assert!(!sl.contains("the"));
    }
}
