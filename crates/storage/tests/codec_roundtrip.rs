//! Property suite for the posting-list encoding: for any
//! frequency-sorted posting list,
//!
//! * `decode(encode(list)) == list` (lossless round trip),
//! * the scratch-buffer decode agrees with the allocating decode,
//! * every strict prefix of an encoding is rejected (torn/truncated
//!   payloads **error**, they never panic), and
//! * arbitrary hostile bytes never panic the decoder.

use bytes::Bytes;
use ir_storage::codec::{decode_postings, decode_postings_into, encode_postings};
use ir_types::{frequency_order, Posting};
use proptest::{collection, proptest, ProptestConfig};

/// Doc-id gaps and frequencies drawn small enough to force runs (equal
/// frequencies) and multi-byte varints, then sorted into the frequency
/// order the encoder requires.
fn list_from(pairs: &[(u32, u32)]) -> Vec<Posting> {
    let mut doc = 0u32;
    let mut v: Vec<Posting> = pairs
        .iter()
        .map(|&(gap, freq)| {
            doc += gap;
            Posting::new(doc, freq)
        })
        .collect();
    v.sort_by(frequency_order);
    v
}

/// Garbage may happen to decode (any valid stream is reachable), but
/// it must never panic, and both entry points must give one verdict.
fn check_hostile(raw: &[u8]) {
    let bytes = Bytes::copy_from_slice(raw);
    let mut scratch = Vec::new();
    let ok = decode_postings_into(bytes.clone(), &mut scratch);
    match decode_postings(bytes) {
        Some(decoded) => assert!(ok && decoded == scratch, "entry points disagree"),
        None => assert!(!ok, "entry points disagree"),
    }
}

/// The inputs that once broke the decoder, replayed on every run: the
/// generated cases below will not find a 15-byte needle again.
#[test]
fn hostile_bytes_fixed_cases() {
    // n = 2, a legal one-entry run, then a run length of u64::MAX:
    // `decoded + run` overflowed in overflow-checked builds.
    let mut run_of_u64_max = vec![0x82, 0x81, 0x81, 0x81, 0x80];
    run_of_u64_max.extend_from_slice(&[0x7f; 9]);
    run_of_u64_max.push(0x81);
    check_hostile(&run_of_u64_max);
    assert_eq!(decode_postings(Bytes::from(run_of_u64_max)), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn round_trips_and_rejects_truncation(
        pairs in collection::vec((1u32..5_000, 1u32..40), 1..300),
    ) {
        let list = list_from(&pairs);
        let encoded = encode_postings(&list);

        // Lossless round trip, allocating path.
        let decoded = decode_postings(encoded.clone()).expect("decode of own encoding failed");
        assert_eq!(decoded, list, "round trip");

        // The scratch path must agree exactly (and again when the
        // scratch is reused dirty).
        let mut scratch = vec![Posting::new(u32::MAX, u32::MAX); 7];
        assert!(decode_postings_into(encoded.clone(), &mut scratch));
        assert_eq!(scratch, list, "scratch decode");
        assert!(decode_postings_into(encoded.clone(), &mut scratch));
        assert_eq!(scratch, list, "reused scratch decode");

        // A torn write: every strict prefix must be rejected.
        for cut in 0..encoded.len() {
            assert!(
                !decode_postings_into(encoded.slice(0..cut), &mut scratch),
                "accepted a {cut}-byte prefix of {} bytes",
                encoded.len()
            );
        }
    }

    #[test]
    fn hostile_bytes_never_panic(raw in collection::vec(0u8..=255, 0..400)) {
        check_hostile(&raw);
    }
}
