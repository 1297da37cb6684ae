//! Deterministic rank → pseudo-word mapping.
//!
//! Synthetic terms need printable, stable names so the same collection
//! can be addressed through the lexicon by rank. Names are `x` followed
//! by the rank in base-26 (`a`–`z`), e.g. rank 0 → `xa`, rank 27 →
//! `xab`. They are purely alphabetic (they survive the tokenizer) and
//! the leading `x` plus trailing consonant-heavy digits make them
//! fixed points of the Porter stemmer in practice.

/// Name of the term with the given popularity rank.
pub fn term_name(rank: u32) -> String {
    // The leading `x`, then the base-26 digits (`u32::MAX` has 7)
    // filled in from the end.
    let mut buf = [b'x'; 8];
    let mut start = buf.len();
    let mut v = rank;
    loop {
        start -= 1;
        buf[start] = b'a' + (v % 26) as u8;
        v /= 26;
        if v == 0 {
            break;
        }
    }
    buf[start - 1..].iter().map(|&b| char::from(b)).collect()
}

/// Inverse of [`term_name`]; `None` if `name` is not of that shape.
pub fn term_rank(name: &str) -> Option<u32> {
    let digits = name.strip_prefix('x')?;
    if digits.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for b in digits.bytes() {
        if !b.is_ascii_lowercase() {
            return None;
        }
        v = v * 26 + u64::from(b - b'a');
        if v > u64::from(u32::MAX) {
            return None;
        }
    }
    Some(v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for rank in [0, 1, 25, 26, 27, 675, 676, 1_000_000, u32::MAX] {
            assert_eq!(term_rank(&term_name(rank)), Some(rank), "rank {rank}");
        }
    }

    #[test]
    fn names_are_distinct_and_alphabetic() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for rank in 0..10_000 {
            let name = term_name(rank);
            assert!(name.bytes().all(|b| b.is_ascii_lowercase()));
            assert!(seen.insert(name));
        }
    }

    #[test]
    fn rejects_foreign_strings() {
        assert_eq!(term_rank("price"), None);
        assert_eq!(term_rank("x"), None);
        assert_eq!(term_rank("xA"), None);
        assert_eq!(term_rank(""), None);
    }

    #[test]
    fn base_examples() {
        assert_eq!(term_name(0), "xa");
        assert_eq!(term_name(25), "xz");
        assert_eq!(term_name(26), "xba");
    }
}
