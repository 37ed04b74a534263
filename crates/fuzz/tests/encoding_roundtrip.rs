//! Encoding round-trips under the fuzzer's adversarial value generator
//! (satellite of the differential-fuzzing work): stored widths, DSB and the
//! string dictionary must all survive i64 extremes and mixed-scale decimals
//! losslessly.
//!
//! DSB comparisons are exact mantissa math — `to_f64` would hide
//! precision loss exactly where these values live.

use std::ops::{Bound, RangeBounds};

use rapid_fuzz::datagen::{gen_extreme_i64s, EXTREME_INTS, STRING_POOL};
use rapid_fuzz::rng::{mix, Rng};
use rapid_storage::encoding::dict::Dictionary;
use rapid_storage::encoding::dsb::common_scale;
use rapid_storage::like::like_match;
use rapid_storage::types::{DataType, Value};
use rapid_storage::{ColumnData, Field, Schema, TableBuilder};

const SEED: u64 = 0xE27C0DE;

#[test]
fn stored_widths_roundtrip_extreme_values() {
    // The one at-rest encoding a scan reads: each column at the narrowest
    // of 1, 2, 4 or 8 bytes its range (and the 0 a NULL stores) needs.
    // Without the extremes the same vector is stored narrower.
    for case in 0..20u64 {
        let mut rng = Rng::new(mix(SEED, case));
        let extreme = gen_extreme_i64s(&mut rng, 300);
        let small: Vec<i64> = extreme
            .iter()
            .copied()
            .filter(|v| !EXTREME_INTS.contains(v))
            .collect();
        for vals in [extreme, small] {
            let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
            let mut b = TableBuilder::new("t", schema).chunk_rows(64);
            b.extend_rows(vals.iter().map(|&v| vec![Value::Int(v)]));
            let t = b.finish();
            let (lo, hi) = vals.iter().fold((0, 0), |(l, h), &v| (v.min(l), v.max(h)));
            assert_eq!(
                t.column_width(0),
                ColumnData::width_for(lo, hi),
                "case {case}"
            );
            assert_eq!(t.column_i64(0), vals, "case {case}");
        }
    }
}

#[test]
fn decimal_columns_store_mixed_scales_exactly() {
    // DSB at the load path: one common scale per column, and every value
    // of a mixed-scale column is its exact mantissa at that scale.
    let mut rng = Rng::new(mix(SEED, 777));
    let vals: Vec<Value> = (0..200)
        .map(|_| Value::Decimal {
            unscaled: rng.range_i64(-100_000, 100_000),
            scale: rng.below(7) as u8,
        })
        .collect();
    let schema = Schema::new(vec![Field::new("d", DataType::Decimal { scale: 6 })]);
    let mut b = TableBuilder::new("t", schema).chunk_rows(64);
    b.extend_rows(vals.iter().map(|v| vec![v.clone()]));
    let t = b.finish();
    let scale = common_scale(&vals);
    assert_eq!(t.scales[0], scale);
    let stored = t.column_i64(0);
    for (row, original) in vals.iter().enumerate() {
        assert_eq!(
            Some(stored[row]),
            original.unscaled_at(scale),
            "row {row} ({original:?}) lost precision"
        );
    }
}

#[test]
fn dictionary_roundtrips_the_adversarial_string_pool() {
    let d = Dictionary::build(STRING_POOL.iter().copied());
    // Every pool string (duplicates collapse) maps code <-> value exactly.
    for s in STRING_POOL {
        let code = d.code_of(s).expect("pool string must be present");
        assert_eq!(d.value_of(code), Some(s));
    }
    assert_eq!(d.len(), STRING_POOL.len());
    assert_eq!(d.code_of("not-in-pool"), None);
}

#[test]
fn dictionary_prefix_and_contains_agree_with_like() {
    let d = Dictionary::build(STRING_POOL.iter().copied());
    // prefix_codes(p) must mark exactly the codes whose value matches
    // LIKE 'p%'; contains_codes(n) exactly those matching LIKE '%n%'; and
    // code_range exactly the codes whose value passes `<`, `<=`, `>` or
    // `>=` the probe.
    for probe in ["a", "ap", "grape", "", "pe", "_", "%"] {
        for range in [
            (Bound::Unbounded, Bound::Excluded(probe)),
            (Bound::Unbounded, Bound::Included(probe)),
            (Bound::Excluded(probe), Bound::Unbounded),
            (Bound::Included(probe), Bound::Unbounded),
        ] {
            let filtered: Vec<usize> = (0..d.len())
                .filter(|&code| range.contains(&d.values()[code].as_str()))
                .collect();
            let by_range: Vec<usize> = d
                .code_range(range.0, range.1)
                .map_or(Vec::new(), |(lo, hi)| (lo as usize..=hi as usize).collect());
            assert_eq!(by_range, filtered, "range {range:?}");
        }
        let by_prefix = d.prefix_codes(probe);
        let by_contains = d.contains_codes(probe);
        for (code, value) in d.values().iter().enumerate() {
            // The probe is literal text here, so escape nothing and
            // compare against a literal-prefix matcher instead of a LIKE
            // pattern containing the probe's own wildcards.
            assert_eq!(
                by_prefix.get(code),
                value.starts_with(probe),
                "prefix {probe:?} vs {value:?}"
            );
            assert_eq!(
                by_contains.get(code),
                value.contains(probe),
                "contains {probe:?} vs {value:?}"
            );
        }
    }
    // And for wildcard-free probes the LIKE matcher agrees with both.
    for probe in ["a", "ap", "grape", "pe"] {
        for value in d.values() {
            assert_eq!(
                like_match(&format!("{probe}%"), value),
                value.starts_with(probe)
            );
            assert_eq!(
                like_match(&format!("%{probe}%"), value),
                value.contains(probe)
            );
        }
    }
}
