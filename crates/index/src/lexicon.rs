//! The lexicon: memory-resident per-term metadata.

use ir_types::{IrError, IrResult, TermId};
use serde::Serialize;
use std::hash::{BuildHasher, RandomState};

/// Per-term statistics, computed at index build time.
#[derive(Clone, Debug, Serialize)]
pub struct TermEntry {
    /// `f_t`: number of documents containing the term.
    pub doc_freq: u32,
    /// `idf_t = log₂(N / f_t)` (Eq. 4).
    pub idf: f64,
    /// `f_max`: the largest `f_{d,t}` in the term's inverted list —
    /// kept with the idf values so step 4b/3c of DF/BAF can skip a list
    /// without reading it (paper footnote 3).
    pub f_max: u32,
    /// Pages the list occupies on disk.
    pub n_pages: u32,
    /// Collection-derived stop words keep their lexicon slot but have
    /// no inverted list and are skipped at query time.
    pub stopped: bool,
}

impl TermEntry {
    /// Total `(d, f_{d,t})` entries in the list: `f_t`, none once
    /// stopped.
    pub fn n_postings(&self) -> u32 {
        if self.stopped {
            0
        } else {
            self.doc_freq
        }
    }
}

/// Term name ↔ id mapping plus per-term statistics.
///
/// Each name is stored once, in one arena: term `t`'s name is
/// `names[name_ends[t - 1]..name_ends[t]]` (from 0 for the first term),
/// so the lexicon makes no allocation per term. The name → id map is an
/// open-addressing table (linear probing, at most half full) of ids and
/// the low 32 bits of a seeded hash of their names: a probe compares
/// names only when those bits match, and growing the table re-places
/// ids by the stored bits without touching a name.
#[derive(Debug, Default)]
pub struct Lexicon {
    /// The table; its length is zero or a power of two.
    slots: Vec<Slot>,
    hasher: RandomState,
    entries: Vec<TermEntry>,
    /// Every name, back to back in id order.
    names: String,
    /// Term `t`'s name ends at byte `name_ends[t]` of `names`.
    name_ends: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// A term id, or [`EMPTY`].
    id: u32,
    hash: u32,
}

/// The id of a free [`Slot`].
const EMPTY: u32 = u32::MAX;

impl Lexicon {
    /// Creates an empty lexicon.
    pub fn new() -> Self {
        Lexicon::default()
    }

    /// Returns the id for `name`, inserting a fresh entry if absent.
    /// Statistics of fresh entries are zeroed until the build fills
    /// them in.
    pub fn intern(&mut self, name: &str) -> TermId {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = self.hasher.hash_one(name) as u32;
        let slot = match self.find(name, hash) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = TermId(self.entries.len() as u32);
        self.slots[slot] = Slot { id: id.0, hash };
        self.names.push_str(name);
        let end = u32::try_from(self.names.len()).expect("term names total under 4 GiB");
        self.name_ends.push(end);
        self.entries.push(TermEntry {
            doc_freq: 0,
            idf: 0.0,
            f_max: 0,
            n_pages: 0,
            stopped: false,
        });
        id
    }

    /// Looks up a term by name.
    pub fn lookup(&self, name: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name, self.hasher.hash_one(name) as u32).ok()
    }

    /// `name`'s id, or the free slot where it would go; `hash` is the
    /// low half of its hash. The table must have a free slot.
    fn find(&self, name: &str, hash: u32) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && self.name(TermId(slot.id)) == name {
                return Ok(TermId(slot.id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-places every slot.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot { id: EMPTY, hash: 0 }; len]);
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.hash as usize & (len - 1);
            while self.slots[i].id != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// Looks up a term by name, erroring with the term string if absent.
    pub fn require(&self, name: &str) -> IrResult<TermId> {
        self.lookup(name)
            .ok_or_else(|| IrError::UnknownTermString(name.to_string()))
    }

    /// The name of term `id`.
    ///
    /// # Panics
    /// Panics if `id` was never interned.
    pub fn name(&self, id: TermId) -> &str {
        let t = id.index();
        let start = if t == 0 { 0 } else { self.name_ends[t - 1] };
        &self.names[start as usize..self.name_ends[t] as usize]
    }

    /// Bytes the lexicon holds: entries, the name arena and its ends,
    /// and the name → id table.
    pub fn memory_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<TermEntry>()
            + self.names.len()
            + self.name_ends.len() * std::mem::size_of::<u32>()
            + self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// The entry for `id`.
    pub fn entry(&self, id: TermId) -> IrResult<&TermEntry> {
        self.entries.get(id.index()).ok_or(IrError::UnknownTerm(id))
    }

    /// Mutable entry access (builder only).
    pub(crate) fn entry_mut(&mut self, id: TermId) -> &mut TermEntry {
        &mut self.entries[id.index()]
    }

    /// Number of terms (including stopped ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, entry)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &TermEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (TermId(i as u32), e))
    }

    /// Number of non-stopped terms with at least one posting.
    pub fn n_indexed_terms(&self) -> usize {
        self.entries.iter().filter(|e| e.n_postings() > 0).count()
    }

    /// Groups inverted lists by idf band, as in the paper's Table 4.
    /// Returns `(low, high, count, min_pages, max_pages)` per band for
    /// the given band boundaries (ascending idf).
    pub fn idf_bands(&self, bounds: &[f64]) -> Vec<IdfBand> {
        let mut bands: Vec<IdfBand> = bounds
            .windows(2)
            .map(|w| IdfBand {
                idf_low: w[0],
                idf_high: w[1],
                n_terms: 0,
                min_pages: u32::MAX,
                max_pages: 0,
            })
            .collect();
        for e in &self.entries {
            if e.n_postings() == 0 {
                continue;
            }
            for b in bands.iter_mut() {
                if e.idf >= b.idf_low && e.idf < b.idf_high {
                    b.n_terms += 1;
                    b.min_pages = b.min_pages.min(e.n_pages);
                    b.max_pages = b.max_pages.max(e.n_pages);
                    break;
                }
            }
        }
        for b in bands.iter_mut() {
            if b.n_terms == 0 {
                b.min_pages = 0;
            }
        }
        bands
    }
}

/// One row of a Table 4-style inverted-list census.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IdfBand {
    /// Inclusive lower idf bound.
    pub idf_low: f64,
    /// Exclusive upper idf bound.
    pub idf_high: f64,
    /// Terms whose idf falls in the band.
    pub n_terms: usize,
    /// Shortest list in the band (pages).
    pub min_pages: u32,
    /// Longest list in the band (pages).
    pub max_pages: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_entry_is_24_bytes_and_derives_its_posting_count() {
        assert_eq!(std::mem::size_of::<TermEntry>(), 24);
        let mut lex = Lexicon::new();
        let id = lex.intern("price");
        lex.entry_mut(id).doc_freq = 7;
        assert_eq!(lex.entry(id).unwrap().n_postings(), 7);
        lex.entry_mut(id).stopped = true;
        assert_eq!(lex.entry(id).unwrap().n_postings(), 0);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut lex = Lexicon::new();
        let a = lex.intern("price");
        let b = lex.intern("stock");
        let a2 = lex.intern("price");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(lex.len(), 2);
        assert_eq!((lex.name(a), lex.name(b)), ("price", "stock"));
    }

    #[test]
    fn lookup_and_require() {
        let mut lex = Lexicon::new();
        lex.intern("price");
        assert!(lex.lookup("price").is_some());
        assert!(lex.lookup("gold").is_none());
        assert!(matches!(
            lex.require("gold"),
            Err(IrError::UnknownTermString(_))
        ));
    }

    #[test]
    fn entry_errors_on_unknown_id() {
        let lex = Lexicon::new();
        assert!(lex.entry(TermId(3)).is_err());
    }

    #[test]
    fn idf_bands_partition_terms() {
        let mut lex = Lexicon::new();
        for (name, idf, pages) in [
            ("a", 2.0, 100),
            ("b", 4.0, 20),
            ("c", 9.0, 1),
            ("d", 2.5, 60),
        ] {
            let id = lex.intern(name);
            let e = lex.entry_mut(id);
            e.idf = idf;
            e.n_pages = pages;
            e.doc_freq = pages;
        }
        let bands = lex.idf_bands(&[1.9, 3.1, 5.4, 8.7, 17.4]);
        assert_eq!(bands.len(), 4);
        assert_eq!(bands[0].n_terms, 2); // a, d
        assert_eq!(bands[0].min_pages, 60);
        assert_eq!(bands[0].max_pages, 100);
        assert_eq!(bands[1].n_terms, 1); // b
        assert_eq!(bands[2].n_terms, 0);
        assert_eq!(bands[3].n_terms, 1); // c
    }

    #[test]
    fn stopped_terms_excluded_from_census() {
        let mut lex = Lexicon::new();
        let id = lex.intern("the");
        {
            let e = lex.entry_mut(id);
            e.idf = 2.0;
            e.n_pages = 500;
            e.doc_freq = 500;
            e.stopped = true;
        }
        assert_eq!(lex.n_indexed_terms(), 0);
        let bands = lex.idf_bands(&[0.0, 100.0]);
        assert_eq!(bands[0].n_terms, 0);
    }
}
