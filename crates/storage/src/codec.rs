//! The posting-list encoding for frequency-sorted inverted lists.
//!
//! The paper assumes the compression of \[PZSD96\]: a raw 6-byte
//! `(d, f_{d,t})` entry (4-byte document id + 2-byte frequency) shrinks
//! to ≈1 byte, which is what makes 404 entries fit in a tenth of a 4 KB
//! page (§4.2). This module implements the scheme that frequency-sorted
//! lists make natural:
//!
//! * entries are grouped into **runs of equal frequency** (the sort
//!   order guarantees runs are contiguous and frequencies decrease);
//! * each run header stores the *drop* from the previous frequency and
//!   the run length, both variable-byte coded;
//! * document ids within a run are ascending, so they are coded as
//!   v-byte **gaps**.
//!
//! On a skewed collection most postings have `f_{d,t} = 1` and land in
//! one giant run of small gaps, approaching 1–1.5 bytes per entry.
//!
//! This is the only encoding: `BFPG` page payloads and `BFIR` posting
//! blobs both carry it, and both headers name it as [`ENCODING_ID`].
//! DESIGN.md § 13 records the two alternatives (a group-varint layout
//! and a Re-Pair grammar) that were measured against it and deleted.
//!
//! Every decode records on the global `ir-observe` registry: the
//! `index.pages_decoded` / `index.bytes_decompressed` counters, the
//! `index.decode_ns.golden` nanosecond histogram and the
//! `index.decoded_entries.golden` counter, from which report layers
//! derive decode µs/entry.

use ir_types::{is_frequency_sorted, DocId, Posting};

/// The id the `BFPG` and `BFIR` headers carry for this encoding; both
/// formats refuse a file that names any other.
pub const ENCODING_ID: u8 = 0;

/// Aggregate encoding statistics for a whole index build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Entries encoded.
    pub n_postings: u64,
    /// Size at the paper's raw 6 bytes/entry.
    pub raw_bytes: u64,
    /// Encoded size.
    pub compressed_bytes: u64,
}

impl CompressionStats {
    /// Mean encoded bytes per entry.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.n_postings == 0 {
            0.0
        } else {
            self.compressed_bytes as f64 / self.n_postings as f64
        }
    }

    /// Accumulates another batch.
    pub fn add(&mut self, other: CompressionStats) {
        self.n_postings += other.n_postings;
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
    }
}

/// Decode meters on the global registry, resolved once: the name
/// lookup takes a short lock, the per-decode bumps are lock-free.
struct DecodeMeters {
    pages: ir_observe::Counter,
    bytes: ir_observe::Counter,
    decode_ns: ir_observe::Histogram,
    entries: ir_observe::Counter,
}

fn decode_meters() -> &'static DecodeMeters {
    static METERS: std::sync::OnceLock<DecodeMeters> = std::sync::OnceLock::new();
    METERS.get_or_init(|| {
        let registry = ir_observe::global();
        DecodeMeters {
            pages: registry.counter("index.pages_decoded"),
            bytes: registry.counter("index.bytes_decompressed"),
            decode_ns: registry.histogram("index.decode_ns.golden", &ir_observe::DECODE_NS_BOUNDS),
            entries: registry.counter("index.decoded_entries.golden"),
        }
    })
}

pub(crate) fn put_vbyte(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte | 0x80); // high bit terminates
            return;
        }
        buf.push(byte);
    }
}

/// Reads one v-byte value off the front of `buf` and advances past it.
fn get_vbyte(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if shift >= 64 {
            return None;
        }
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 != 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Encodes frequency-sorted postings.
///
/// # Panics
/// Panics if `postings` is not in frequency order (`f` desc, `d` asc) —
/// the builder guarantees the order; violating it would corrupt gaps.
pub fn encode_postings(postings: &[Posting]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(postings.len() * 2);
    encode_postings_into(postings, &mut buf);
    buf
}

/// Appends the bytes [`encode_postings`] returns for `postings` to
/// `buf`, so a caller writing many lists fills one buffer instead of
/// allocating one per list.
///
/// # Panics
/// As [`encode_postings`].
pub fn encode_postings_into(postings: &[Posting], buf: &mut Vec<u8>) {
    assert!(
        is_frequency_sorted(postings),
        "encode_postings requires frequency-sorted input"
    );
    put_vbyte(buf, postings.len() as u64);
    let mut i = 0usize;
    let mut prev_freq: Option<u32> = None;
    while i < postings.len() {
        let freq = postings[i].freq;
        let mut j = i;
        while j < postings.len() && postings[j].freq == freq {
            j += 1;
        }
        // Run header: frequency drop (first run stores the frequency
        // itself) and run length.
        match prev_freq {
            None => put_vbyte(buf, u64::from(freq)),
            Some(p) => put_vbyte(buf, u64::from(p - freq)),
        }
        prev_freq = Some(freq);
        put_vbyte(buf, (j - i) as u64);
        // Doc-id gaps within the run.
        let mut prev_doc = 0u32;
        for (k, p) in postings[i..j].iter().enumerate() {
            let gap = if k == 0 { p.doc.0 } else { p.doc.0 - prev_doc };
            put_vbyte(buf, u64::from(gap));
            prev_doc = p.doc.0;
        }
        i = j;
    }
}

/// Decodes postings produced by [`encode_postings`].
///
/// Returns `None` on any malformed input (truncated varint, overflowing
/// counts, non-decreasing frequencies); never panics on hostile bytes.
/// Records the same meters as [`decode_postings_into`].
pub fn decode_postings(data: &[u8]) -> Option<Vec<Posting>> {
    let mut out = Vec::new();
    decode_postings_into(data, &mut out).then_some(out)
}

/// Decodes postings produced by [`encode_postings`] into a caller-owned
/// vector, reusing its capacity — the scratch-buffer counterpart of
/// [`decode_postings`] for hot paths that decode one page per fetch and
/// would otherwise allocate a fresh `Vec<Posting>` each time.
///
/// Clears `out` first. Returns `false` on any malformed input (`out`
/// then holds at most a partial decode and must not be used). Each call
/// records one page decode, the encoded byte count, the decode
/// nanoseconds and (on success) the entries decoded on the global
/// `ir-observe` registry.
pub fn decode_postings_into(data: &[u8], out: &mut Vec<Posting>) -> bool {
    let meters = decode_meters();
    meters.pages.inc();
    meters.bytes.add(data.len() as u64);
    let start = std::time::Instant::now();
    let ok = decode_runs(data, out).is_some();
    meters.decode_ns.record(start.elapsed().as_nanos() as u64);
    if ok {
        meters.entries.add(out.len() as u64);
    }
    ok
}

/// The decode itself, without instrumentation.
fn decode_runs(mut data: &[u8], out: &mut Vec<Posting>) -> Option<()> {
    out.clear();
    let n = usize::try_from(get_vbyte(&mut data)?).ok()?;
    // Guard against hostile counts: each posting costs ≥ 1 byte.
    if n > data.len().saturating_mul(2) + 2 {
        return None;
    }
    out.reserve(n);
    let mut freq: Option<u32> = None;
    while out.len() < n {
        let header = get_vbyte(&mut data)?;
        let f = match freq {
            None => u32::try_from(header).ok()?,
            Some(p) => p.checked_sub(u32::try_from(header).ok()?)?,
        };
        if f == 0 {
            return None; // frequencies are >= 1
        }
        freq = Some(f);
        // A run length is any u64 the bytes can spell: compare it with
        // the room left, never add it to a length.
        let run = get_vbyte(&mut data)?;
        if run == 0 || run > (n - out.len()) as u64 {
            return None;
        }
        let mut doc = 0u32;
        for k in 0..run {
            let gap = u32::try_from(get_vbyte(&mut data)?).ok()?;
            doc = if k == 0 { gap } else { doc.checked_add(gap)? };
            out.push(Posting {
                doc: DocId(doc),
                freq: f,
            });
        }
    }
    Some(())
}

/// Encodes and measures without keeping the bytes.
pub fn measure(postings: &[Posting]) -> CompressionStats {
    CompressionStats {
        n_postings: postings.len() as u64,
        raw_bytes: postings.len() as u64 * 6,
        compressed_bytes: encode_postings(postings).len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_types::frequency_order;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn postings(entries: &[(u32, u32)]) -> Vec<Posting> {
        entries.iter().map(|&(d, f)| Posting::new(d, f)).collect()
    }

    /// Deterministic frequency-sorted random lists.
    fn random_lists(seed: u64, count: usize) -> Vec<Vec<Posting>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.gen_range(0..200);
                let mut p: Vec<Posting> = (0..n)
                    .map(|_| Posting::new(rng.gen_range(0..10_000), rng.gen_range(1..50)))
                    .collect();
                p.sort_by(frequency_order);
                p.dedup_by_key(|x| x.doc); // doc ids unique within a list
                p.sort_by(frequency_order);
                p
            })
            .collect()
    }

    #[test]
    fn round_trip_simple() {
        let p = postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (9, 1)]);
        let enc = encode_postings(&p);
        assert_eq!(decode_postings(&enc).unwrap(), p);
    }

    #[test]
    fn encoding_is_pinned_byte_for_byte() {
        // The on-disk stream of both file formats: count, then per run
        // (frequency or drop, run length, doc-id gaps), every value a
        // little-endian v-byte whose *last* byte carries the high bit.
        // 298 = 0x2a + (2 << 7) exercises a two-byte value.
        let p = postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (300, 1)]);
        let expected: [u8; 14] = [
            0x86, // n = 6
            0x89, 0x81, 0x83, // f = 9, run of 1: doc 3
            0x84, 0x82, 0x81, 0x86, // drop 4 → f = 5, run of 2: docs 1, 1+6
            0x84, 0x83, 0x80, 0x82, 0x2a, 0x82, // drop 4 → f = 1, run of 3: 0, 2, 2+298
        ];
        assert_eq!(encode_postings(&p), expected);
        // Appending into a buffer that already holds bytes adds exactly
        // the same stream.
        let mut buf = vec![0xee];
        encode_postings_into(&p, &mut buf);
        assert_eq!(buf[0], 0xee);
        assert_eq!(buf[1..], expected);
        assert_eq!(decode_postings(&expected).unwrap(), p);
    }

    #[test]
    fn empty_list() {
        let enc = encode_postings(&[]);
        assert_eq!(decode_postings(&enc).unwrap(), vec![]);
    }

    #[test]
    fn skewed_lists_approach_one_byte_per_entry() {
        // 10,000 postings, all frequency 1, dense doc ids: the paper's
        // dominant case. Gaps of 1 cost one byte each.
        let p: Vec<Posting> = (0..10_000).map(|d| Posting::new(d, 1)).collect();
        let stats = measure(&p);
        assert!(
            stats.bytes_per_entry() < 1.1,
            "got {} bytes/entry",
            stats.bytes_per_entry()
        );
        assert_eq!(stats.raw_bytes, 60_000);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let cases = [
            postings(&[(3, 9), (1, 5), (7, 5), (0, 1), (2, 1), (9, 1)]),
            (0..500).map(|d| Posting::new(d * 3, 1)).collect(),
        ];
        for p in &cases {
            let enc = encode_postings(p);
            for cut in 0..enc.len() {
                assert!(
                    decode_postings(&enc[..cut]).is_none(),
                    "truncation at {cut}/{} must fail",
                    enc.len()
                );
            }
        }
    }

    #[test]
    fn garbage_input_rejected_or_decodes_to_something() {
        // Any byte soup must not panic.
        let cases: [&[u8]; 4] = [&[0xff], &[0x81, 0x00], &[0x85, 0x85], &[0x82, 0x80, 0x80]];
        for c in cases {
            let _ = decode_postings(c);
        }
    }

    #[test]
    fn run_length_of_u64_max_is_rejected_not_overflowed() {
        // n = 2; one legal run (f = 1, one entry, doc 1); then a run
        // header (drop 0) whose length v-byte spells u64::MAX. Adding
        // that to the entries decoded so far overflows; it must be
        // compared with the room left instead.
        let mut bytes = vec![0x82, 0x81, 0x81, 0x81, 0x80];
        bytes.extend_from_slice(&[0x7f; 9]);
        bytes.push(0x81);
        assert_eq!(bytes.len(), 15);
        assert_eq!(decode_postings(&bytes), None);
    }

    #[test]
    fn a_hostile_posting_count_is_refused_before_the_reserve() {
        // The count v-byte spells 2^20 (LSB group first, the high bit
        // ending the value); three bytes of one short run follow. Each
        // posting costs at least one byte, so the count is refused
        // before it can size the output vector.
        let bytes = [0x00, 0x00, 0x40 | 0x80, 0x81, 0x81, 0x81];
        let mut slice = &bytes[..];
        assert_eq!(get_vbyte(&mut slice), Some(1 << 20));
        assert_eq!(decode_postings(&bytes), None);
        let mut out = Vec::new();
        assert!(!decode_postings_into(&bytes, &mut out));
        assert!(
            out.capacity() <= bytes.len(),
            "reserved {} postings for {} bytes",
            out.capacity(),
            bytes.len()
        );
    }

    #[test]
    #[should_panic(expected = "frequency-sorted")]
    fn unsorted_input_panics() {
        let _ = encode_postings(&postings(&[(0, 1), (1, 5)]));
    }

    #[test]
    fn stats_accumulate() {
        let mut total = CompressionStats::default();
        total.add(measure(&postings(&[(0, 2), (1, 1)])));
        total.add(measure(&postings(&[(5, 3)])));
        assert_eq!(total.n_postings, 3);
        assert_eq!(total.raw_bytes, 18);
        assert!(total.compressed_bytes > 0);
    }

    #[test]
    fn random_lists_round_trip_and_scratch_matches_allocating() {
        let mut scratch = Vec::new();
        for p in random_lists(7, 60) {
            let enc = encode_postings(&p);
            assert_eq!(decode_postings(&enc).unwrap(), p);
            assert!(decode_postings_into(&enc, &mut scratch));
            assert_eq!(scratch, p, "scratch != allocating");
        }
    }
}
