//! Porter's suffix-stripping algorithm (M. F. Porter, *An algorithm for
//! suffix stripping*, Program 14(3), 1980), as used for index
//! construction in §4.2 of the paper ("stemmed using a Porter stemmer,
//! described in \[Fra92\]").
//!
//! This is a from-scratch port of the algorithm definition (following
//! the structure of Porter's reference implementation): five rule steps
//! applied in sequence, guarded by the *measure* `m` of the stem and the
//! `*v*` / `*d` / `*o` conditions. Words of one or two letters are
//! returned unchanged, as in the reference implementation.
//!
//! ```
//! assert_eq!(ir_text::stem("computing"), "comput");
//! assert_eq!(ir_text::stem("computer"), "comput");
//! assert_eq!(ir_text::stem("investment"), "invest");
//! ```

/// Stems a single lower-case word.
///
/// Input is expected to be a lower-case ASCII word (the output of the
/// tokenizer). Words containing non-ASCII-alphabetic bytes, and words
/// shorter than three letters, are returned unchanged.
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_string();
    }
    let mut s = Stemmer {
        b: word.as_bytes().to_vec(),
        k: word.len() - 1,
        stem_len: 0,
    };
    s.step1ab();
    s.step1c();
    s.step2();
    s.step3();
    s.step4();
    s.step5();
    // The buffer is all ASCII by construction.
    String::from_utf8(s.b[..=s.k].to_vec()).expect("stemmer operates on ASCII")
}

/// Working state. `b[0..=k]` is the current word; `stem_len` is the
/// length of the stem left of the suffix matched by the most recent
/// successful [`Stemmer::ends`] call (Porter's `j`, offset by one so a
/// whole-word suffix match is representable without signed arithmetic).
struct Stemmer {
    b: Vec<u8>,
    k: usize,
    stem_len: usize,
}

impl Stemmer {
    /// Is `b[i]` a consonant? `y` is a consonant at position 0, and a
    /// consonant exactly when preceded by a vowel.
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// The measure `m` of the stem `b[..stem_len]`: the number of VC
    /// sequences in its `[C](VC)^m[V]` decomposition.
    fn m(&self) -> usize {
        let end = self.stem_len;
        let mut n = 0;
        let mut i = 0;
        // Skip the optional leading consonant run.
        while i < end && self.cons(i) {
            i += 1;
        }
        loop {
            // Vowel run.
            while i < end && !self.cons(i) {
                i += 1;
            }
            if i == end {
                return n;
            }
            // Consonant run closes one VC sequence.
            while i < end && self.cons(i) {
                i += 1;
            }
            n += 1;
            if i == end {
                return n;
            }
        }
    }

    /// `*v*`: the stem contains a vowel.
    fn vowel_in_stem(&self) -> bool {
        (0..self.stem_len).any(|i| !self.cons(i))
    }

    /// `*d`: `b[i-1..=i]` is a double consonant.
    fn doublec(&self, i: usize) -> bool {
        i >= 1 && self.b[i] == self.b[i - 1] && self.cons(i)
    }

    /// `*o`: `b[i-2..=i]` is consonant-vowel-consonant with the final
    /// consonant not `w`, `x` or `y` (e.g. `-cav-`, `-hop-`).
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// If the word ends with suffix `s`, record the stem length and
    /// return true. A suffix equal to the whole word matches with an
    /// empty stem (so e.g. bare "ies" is still reduced by step 1a).
    fn ends(&mut self, s: &[u8]) -> bool {
        let len = s.len();
        if len > self.k + 1 {
            return false;
        }
        if &self.b[self.k + 1 - len..=self.k] != s {
            return false;
        }
        self.stem_len = self.k + 1 - len;
        true
    }

    /// Replaces the suffix after the stem with `s` and fixes up `k`.
    /// Only ever called with a replacement that leaves the word
    /// non-empty.
    fn set_to(&mut self, s: &[u8]) {
        debug_assert!(self.stem_len + s.len() > 0, "word must stay non-empty");
        self.b.truncate(self.stem_len);
        self.b.extend_from_slice(s);
        self.k = self.stem_len + s.len() - 1;
    }

    /// Shrinks the word to its current stem.
    fn truncate_to_stem(&mut self) {
        debug_assert!(self.stem_len > 0, "word must stay non-empty");
        self.b.truncate(self.stem_len);
        self.k = self.stem_len - 1;
    }

    /// Conditional replacement: `set_to(s)` only when `m > 0`.
    fn r(&mut self, s: &[u8]) {
        if self.m() > 0 {
            self.set_to(s);
        }
    }

    /// Step 1ab: plurals and -ed / -ing.
    ///
    /// caresses→caress, ponies→poni, ties→ti, cats→cat, feed→feed,
    /// agreed→agree, plastered→plaster, motoring→motor, hopping→hop,
    /// tanned→tan, filing→file.
    fn step1ab(&mut self) {
        if self.b[self.k] == b's' {
            if self.ends(b"sses") {
                self.k -= 2;
                self.b.truncate(self.k + 1);
            } else if self.ends(b"ies") {
                self.set_to(b"i");
            } else if self.b[self.k - 1] != b's' {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        }
        if self.ends(b"eed") {
            if self.m() > 0 {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        } else if (self.ends(b"ed") || self.ends(b"ing")) && self.vowel_in_stem() {
            self.truncate_to_stem();
            if self.ends(b"at") {
                self.set_to(b"ate");
            } else if self.ends(b"bl") {
                self.set_to(b"ble");
            } else if self.ends(b"iz") {
                self.set_to(b"ize");
            } else if self.doublec(self.k) {
                if !matches!(self.b[self.k], b'l' | b's' | b'z') {
                    self.k -= 1;
                    self.b.truncate(self.k + 1);
                }
            } else {
                self.stem_len = self.k + 1;
                if self.m() == 1 && self.cvc(self.k) {
                    self.set_to(b"e");
                }
            }
        }
    }

    /// Step 1c: terminal `y` → `i` when the stem contains a vowel
    /// (happy→happi, sky→sky).
    fn step1c(&mut self) {
        if self.ends(b"y") && self.vowel_in_stem() {
            self.b[self.k] = b'i';
        }
    }

    /// Step 2: double-suffix reductions guarded by `m > 0`
    /// (relational→relate, digitizer→digitize, callousness→callous).
    // Mirrors the reference implementation's switch-on-penultimate-letter
    // structure; collapsing arms would obscure the correspondence.
    #[allow(clippy::collapsible_match)]
    fn step2(&mut self) {
        if self.k < 1 {
            return;
        }
        match self.b[self.k - 1] {
            b'a' => {
                if self.ends(b"ational") {
                    self.r(b"ate");
                } else if self.ends(b"tional") {
                    self.r(b"tion");
                }
            }
            b'c' => {
                if self.ends(b"enci") {
                    self.r(b"ence");
                } else if self.ends(b"anci") {
                    self.r(b"ance");
                }
            }
            b'e' => {
                if self.ends(b"izer") {
                    self.r(b"ize");
                }
            }
            b'l' => {
                if self.ends(b"abli") {
                    self.r(b"able");
                } else if self.ends(b"alli") {
                    self.r(b"al");
                } else if self.ends(b"entli") {
                    self.r(b"ent");
                } else if self.ends(b"eli") {
                    self.r(b"e");
                } else if self.ends(b"ousli") {
                    self.r(b"ous");
                }
            }
            b'o' => {
                if self.ends(b"ization") {
                    self.r(b"ize");
                } else if self.ends(b"ation") || self.ends(b"ator") {
                    self.r(b"ate");
                }
            }
            b's' => {
                if self.ends(b"alism") {
                    self.r(b"al");
                } else if self.ends(b"iveness") {
                    self.r(b"ive");
                } else if self.ends(b"fulness") {
                    self.r(b"ful");
                } else if self.ends(b"ousness") {
                    self.r(b"ous");
                }
            }
            b't' => {
                if self.ends(b"aliti") {
                    self.r(b"al");
                } else if self.ends(b"iviti") {
                    self.r(b"ive");
                } else if self.ends(b"biliti") {
                    self.r(b"ble");
                }
            }
            _ => {}
        }
    }

    /// Step 3: -ic-, -full, -ness etc. (triplicate→triplic,
    /// formative→form, electriciti→electric, hopeful→hope).
    #[allow(clippy::collapsible_match)]
    fn step3(&mut self) {
        match self.b[self.k] {
            b'e' => {
                if self.ends(b"icate") {
                    self.r(b"ic");
                } else if self.ends(b"ative") {
                    self.r(b"");
                } else if self.ends(b"alize") {
                    self.r(b"al");
                }
            }
            b'i' => {
                if self.ends(b"iciti") {
                    self.r(b"ic");
                }
            }
            b'l' => {
                if self.ends(b"ical") {
                    self.r(b"ic");
                } else if self.ends(b"ful") {
                    self.r(b"");
                }
            }
            b's' => {
                if self.ends(b"ness") {
                    self.r(b"");
                }
            }
            _ => {}
        }
    }

    /// Step 4: strip residual suffixes when `m > 1`
    /// (revival→reviv, allowance→allow, adjustment→adjust).
    fn step4(&mut self) {
        if self.k < 1 {
            return;
        }
        let matched = match self.b[self.k - 1] {
            b'a' => self.ends(b"al"),
            b'c' => self.ends(b"ance") || self.ends(b"ence"),
            b'e' => self.ends(b"er"),
            b'i' => self.ends(b"ic"),
            b'l' => self.ends(b"able") || self.ends(b"ible"),
            b'n' => {
                self.ends(b"ant") || self.ends(b"ement") || self.ends(b"ment") || self.ends(b"ent")
            }
            b'o' => {
                (self.ends(b"ion")
                    && self.stem_len >= 1
                    && matches!(self.b[self.stem_len - 1], b's' | b't'))
                    || self.ends(b"ou")
            }
            b's' => self.ends(b"ism"),
            b't' => self.ends(b"ate") || self.ends(b"iti"),
            b'u' => self.ends(b"ous"),
            b'v' => self.ends(b"ive"),
            b'z' => self.ends(b"ize"),
            _ => false,
        };
        if matched && self.m() > 1 {
            self.truncate_to_stem();
        }
    }

    /// Step 5: final -e removal and -ll reduction
    /// (probate→probat, rate→rate, controll→control, roll→roll).
    fn step5(&mut self) {
        self.stem_len = self.k + 1;
        if self.b[self.k] == b'e' {
            let a = self.m();
            if a > 1 || (a == 1 && !self.cvc(self.k - 1)) {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        }
        if self.b[self.k] == b'l' && self.doublec(self.k) {
            self.stem_len = self.k + 1;
            if self.m() > 1 {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pairs: &[(&str, &str)]) {
        for (input, expected) in pairs {
            assert_eq!(&stem(input), expected, "stem({input:?})");
        }
    }

    #[test]
    fn step1a_plurals() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            // Whole-word suffix: stem may be empty.
            ("ies", "i"),
        ]);
    }

    #[test]
    fn step1b_ed_ing() {
        check(&[
            ("feed", "feed"),
            ("agreed", "agre"), // agreed -> agree (1b) -> agre (step 5 e-removal)
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step1c_y_to_i() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn step2_double_suffixes() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
        ]);
    }

    #[test]
    fn step3_suffixes() {
        check(&[
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
        ]);
    }

    #[test]
    fn step4_residual_suffixes() {
        check(&[
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
        ]);
    }

    #[test]
    fn step5_final_e_and_ll() {
        check(&[
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ]);
    }

    #[test]
    fn paper_examples() {
        // §4.2: "computer" and "computing" are both reduced to "comput".
        check(&[("computer", "comput"), ("computing", "comput")]);
        // §3.2.1 example: the refined query terms.
        check(&[
            ("drastic", "drastic"),
            ("price", "price"),
            ("increases", "increas"),
            ("american", "american"),
            ("investment", "invest"),
        ]);
    }

    #[test]
    fn short_words_unchanged() {
        check(&[("a", "a"), ("is", "is"), ("be", "be")]);
    }

    #[test]
    fn non_lowercase_ascii_passes_through() {
        assert_eq!(stem("Wall"), "Wall");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn stable_fixed_points() {
        for w in ["comput", "invest", "stockmarket", "price", "drastic"] {
            assert_eq!(stem(w), w, "stem of {w:?} should be itself");
        }
        // Porter is not idempotent in general: a stem ending in a bare
        // `s` loses it on a second pass.
        assert_eq!(stem("increas"), "increa");
    }

    #[test]
    fn never_panics_and_never_empties() {
        // Smoke test over suffix-heavy letter combinations that exercise
        // the whole-word-match and underflow edges.
        let parts = [
            "e", "y", "s", "ed", "ing", "sses", "ies", "eed", "ion", "ly",
        ];
        for a in parts {
            for b in parts {
                for c in parts {
                    let w = format!("{a}{b}{c}");
                    let out = stem(&w);
                    assert!(!out.is_empty(), "stem({w:?}) must not be empty");
                }
            }
        }
        for w in ["ies", "ing", "sses", "eed", "ed", "ion", "ational"] {
            assert!(!stem(w).is_empty());
        }
    }
}
