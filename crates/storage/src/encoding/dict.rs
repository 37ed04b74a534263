//! Order-preserving string dictionary.
//!
//! "For fixed and variable length strings, we use dictionary encoding as it
//! is the common wisdom in modern OLAP systems. Our dictionary allows
//! updates and range lookups for evaluating prefix and range queries."
//! (§4.2)
//!
//! A dictionary here is built once, sorted: a value's code is its rank, so
//! codes are order-preserving and a range or prefix predicate is a code
//! range found by binary search over the values. It takes no updates: a
//! commit that brings a string the dictionary lacks derives a fresh, sorted
//! one for its table (a documented deviation from §4.2, DESIGN.md).

use crate::bitvec::BitVec;
use std::collections::HashMap;
use std::ops::Bound;

/// A sorted string dictionary: code = rank of the value.
#[derive(Debug, Clone)]
pub struct Dictionary {
    /// Code -> value, strictly ascending.
    values: Vec<String>,
    /// value -> code for O(1) encode.
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Build from a set of values; duplicates collapse. Values are sorted
    /// first so that codes are order-preserving.
    pub fn build<I: IntoIterator<Item = S>, S: Into<String>>(values: I) -> Self {
        let mut vals: Vec<String> = values.into_iter().map(Into::into).collect();
        vals.sort_unstable();
        vals.dedup();
        let index = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary {
            values: vals,
            index,
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The code of `value`, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The value behind `code`.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Bitmap over codes whose value starts with `prefix` (LIKE 'p%').
    pub fn prefix_codes(&self, prefix: &str) -> BitVec {
        let start = self.values.partition_point(|v| v.as_str() < prefix);
        let mut bv = BitVec::zeros(self.values.len());
        for (code, v) in self.values.iter().enumerate().skip(start) {
            if !v.starts_with(prefix) {
                break;
            }
            bv.set(code, true);
        }
        bv
    }

    /// Bitmap over codes whose value contains `needle` (LIKE '%s%'); a
    /// full dictionary scan, but the dictionary is small relative to the
    /// column (the point of dictionary encoding).
    pub fn contains_codes(&self, needle: &str) -> BitVec {
        let mut bv = BitVec::zeros(self.values.len());
        for (code, v) in self.values.iter().enumerate() {
            if v.contains(needle) {
                bv.set(code, true);
            }
        }
        bv
    }

    /// The inclusive code range for a value range, `None` when the range
    /// holds no value of the dictionary.
    pub fn code_range(&self, lo: Bound<&str>, hi: Bound<&str>) -> Option<(u32, u32)> {
        let n = self.values.len() as u32;
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self.values.partition_point(|x| x.as_str() < v) as u32,
            Bound::Excluded(v) => self.values.partition_point(|x| x.as_str() <= v) as u32,
        };
        let end = match hi {
            Bound::Unbounded => n,
            Bound::Included(v) => self.values.partition_point(|x| x.as_str() <= v) as u32,
            Bound::Excluded(v) => self.values.partition_point(|x| x.as_str() < v) as u32,
        };
        if start >= end {
            None
        } else {
            Some((start, end - 1))
        }
    }

    /// All values in code order (for result decoding).
    pub fn values(&self) -> &[String] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let d = Dictionary::build(["pear", "apple", "pear", "fig"]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.value_of(0), Some("apple"));
        assert_eq!(d.value_of(1), Some("fig"));
        assert_eq!(d.value_of(2), Some("pear"));
        assert!(d.values().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(d.code_of("fig"), Some(1));
        assert_eq!(d.code_of("kiwi"), None);
    }

    #[test]
    fn prefix_codes_match_like() {
        let d = Dictionary::build(["grapefruit", "grape", "melon", "gr", "grain"]);
        let bv = d.prefix_codes("gra");
        let matches: Vec<&str> = bv
            .iter_ones()
            .map(|c| d.value_of(c as u32).unwrap())
            .collect();
        let mut sorted = matches.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec!["grain", "grape", "grapefruit"]);
    }

    #[test]
    fn code_range_bounds() {
        let d = Dictionary::build(["a", "c", "e", "g"]);
        assert_eq!(
            d.code_range(Bound::Included("c"), Bound::Included("e")),
            Some((1, 2))
        );
        assert_eq!(
            d.code_range(Bound::Excluded("c"), Bound::Excluded("e")),
            None
        ); // only 'd' — absent
        assert_eq!(
            d.code_range(Bound::Included("b"), Bound::Included("f")),
            Some((1, 2))
        );
        assert_eq!(d.code_range(Bound::Included("x"), Bound::Unbounded), None);
    }

    #[test]
    fn contains_codes_scan() {
        let d = Dictionary::build(["forest green", "green", "lavender", "spring green"]);
        let bv = d.contains_codes("green");
        let hits: Vec<&str> = bv
            .iter_ones()
            .map(|c| d.value_of(c as u32).unwrap())
            .collect();
        assert_eq!(hits.len(), 3);
        assert!(!bv.get(d.code_of("lavender").unwrap() as usize));
    }

    #[test]
    fn empty_prefix_matches_everything() {
        let d = Dictionary::build(["a", "b"]);
        assert_eq!(d.prefix_codes("").count_ones(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn encode_decode_roundtrip(words in proptest::collection::vec("[a-z]{0,8}", 0..100)) {
            let d = Dictionary::build(words.iter().map(String::as_str));
            for w in &words {
                let c = d.code_of(w).unwrap();
                prop_assert_eq!(d.value_of(c), Some(w.as_str()));
            }
        }
    }
}
