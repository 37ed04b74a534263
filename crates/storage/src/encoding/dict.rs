//! Order-preserving, updatable string dictionary.
//!
//! "For fixed and variable length strings, we use dictionary encoding as it
//! is the common wisdom in modern OLAP systems. Our dictionary allows
//! updates and range lookups for evaluating prefix and range queries."
//! (§4.2)
//!
//! Codes are **stable**: a value's code is its insertion index, so encoded
//! columns never need re-coding when the dictionary grows. Order queries go
//! through a sorted view:
//!
//! * while no out-of-order insert has happened, codes themselves are
//!   order-preserving ([`Dictionary::codes_ordered`]) and a range predicate
//!   compiles to a cheap code-range comparison;
//! * after updates break code order, range/prefix predicates are answered
//!   with a **qualifying-code bitmap** built via binary search on the
//!   sorted view — still O(log n) per bound plus O(matching codes).

use serde::{Deserialize, Serialize};

use crate::bitvec::BitVec;
use std::collections::HashMap;
use std::ops::Bound;

/// An updatable, order-aware string dictionary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dictionary {
    /// Code -> value (append-only; code = index).
    values: Vec<String>,
    /// Codes ordered by their string value.
    sorted: Vec<u32>,
    /// value -> code for O(1) encode.
    #[serde(skip)]
    index: HashMap<String, u32>,
    /// True while codes are monotone in value order.
    codes_ordered: bool,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dictionary {
            values: Vec::new(),
            sorted: Vec::new(),
            index: HashMap::new(),
            codes_ordered: true,
        }
    }

    /// Build from a set of values; duplicates collapse. Values are sorted
    /// first so that initial codes are order-preserving (the load path).
    pub fn build<I: IntoIterator<Item = S>, S: Into<String>>(values: I) -> Self {
        let mut vals: Vec<String> = values.into_iter().map(Into::into).collect();
        vals.sort_unstable();
        vals.dedup();
        let index = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        let sorted = (0..vals.len() as u32).collect();
        Dictionary {
            values: vals,
            sorted,
            index,
            codes_ordered: true,
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

    /// Whether codes are currently order-preserving (enables code-range
    /// predicate compilation).
    pub fn codes_ordered(&self) -> bool {
        self.codes_ordered
    }

    /// The code of `value`, if present.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The value behind `code`.
    pub fn value_of(&self, code: u32) -> Option<&str> {
        self.values.get(code as usize).map(String::as_str)
    }

    /// Insert a value (update path), returning its stable code.
    pub fn insert(&mut self, value: &str) -> u32 {
        if let Some(&c) = self.index.get(value) {
            return c;
        }
        let code = self.values.len() as u32;
        self.values.push(value.to_string());
        self.index.insert(value.to_string(), code);
        // Maintain the sorted view.
        let pos = self
            .sorted
            .partition_point(|&c| self.values[c as usize].as_str() < value);
        if pos != self.sorted.len() {
            self.codes_ordered = false;
        }
        self.sorted.insert(pos, code);
        code
    }

    /// Encode a batch of values, inserting unseen ones.
    pub fn encode_all<'a, I: IntoIterator<Item = &'a str>>(&mut self, values: I) -> Vec<u32> {
        values.into_iter().map(|v| self.insert(v)).collect()
    }

    /// Bitmap over codes qualifying for a value range.
    pub fn range_codes(&self, lo: Bound<&str>, hi: Bound<&str>) -> BitVec {
        let start = match lo {
            Bound::Unbounded => 0,
            Bound::Included(v) => self
                .sorted
                .partition_point(|&c| self.values[c as usize].as_str() < v),
            Bound::Excluded(v) => self
                .sorted
                .partition_point(|&c| self.values[c as usize].as_str() <= v),
        };
        let end = match hi {
            Bound::Unbounded => self.sorted.len(),
            Bound::Included(v) => self
                .sorted
                .partition_point(|&c| self.values[c as usize].as_str() <= v),
            Bound::Excluded(v) => self
                .sorted
                .partition_point(|&c| self.values[c as usize].as_str() < v),
        };
        let mut bv = BitVec::zeros(self.values.len());
        for &code in &self.sorted[start..end.max(start)] {
            bv.set(code as usize, true);
        }
        bv
    }

    /// Bitmap over codes whose value starts with `prefix` (LIKE 'p%').
    pub fn prefix_codes(&self, prefix: &str) -> BitVec {
        let start = self
            .sorted
            .partition_point(|&c| self.values[c as usize].as_str() < prefix);
        let mut bv = BitVec::zeros(self.values.len());
        for &code in &self.sorted[start..] {
            if self.values[code as usize].starts_with(prefix) {
                bv.set(code as usize, true);
            } else {
                break;
            }
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

    /// If codes are ordered, the inclusive code range for a value range —
    /// the cheap predicate compilation path. `None` when codes are not
    /// order-preserving or the range is empty.
    pub fn code_range(&self, lo: Bound<&str>, hi: Bound<&str>) -> Option<(u32, u32)> {
        if !self.codes_ordered {
            return None;
        }
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
        assert!(d.codes_ordered());
        assert_eq!(d.code_of("fig"), Some(1));
        assert_eq!(d.code_of("kiwi"), None);
    }

    #[test]
    fn insert_keeps_codes_stable_but_may_break_order() {
        let mut d = Dictionary::build(["b", "d"]);
        assert_eq!(d.code_of("b"), Some(0));
        let c = d.insert("c"); // lands between existing values
        assert_eq!(c, 2);
        assert_eq!(d.code_of("b"), Some(0), "existing codes stay stable");
        assert!(!d.codes_ordered());
        let e = d.insert("e"); // appends at the end: fine either way
        assert_eq!(e, 3);
        assert_eq!(d.insert("c"), 2, "re-insert returns existing code");
    }

    #[test]
    fn appending_in_order_preserves_code_order() {
        let mut d = Dictionary::build(["a", "b"]);
        d.insert("z");
        assert!(d.codes_ordered());
        assert_eq!(
            d.code_range(Bound::Included("b"), Bound::Unbounded),
            Some((1, 2))
        );
    }

    #[test]
    fn range_codes_after_updates() {
        let mut d = Dictionary::build(["apple", "grape", "pear"]);
        d.insert("banana"); // code 3, out of order
        let bv = d.range_codes(Bound::Included("apple"), Bound::Excluded("pear"));
        // apple(0), grape(1), banana(3) qualify; pear(2) does not.
        assert!(bv.get(0) && bv.get(1) && bv.get(3));
        assert!(!bv.get(2));
        assert_eq!(d.code_range(Bound::Unbounded, Bound::Unbounded), None);
    }

    #[test]
    fn prefix_codes_match_like() {
        let mut d = Dictionary::build(["grapefruit", "grape", "melon", "gr"]);
        d.insert("grain");
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
            let mut d = Dictionary::new();
            let codes = d.encode_all(words.iter().map(String::as_str));
            for (w, c) in words.iter().zip(&codes) {
                prop_assert_eq!(d.value_of(*c), Some(w.as_str()));
            }
        }

        #[test]
        fn range_codes_agree_with_direct_comparison(
            words in proptest::collection::vec("[a-z]{1,6}", 1..60),
            lo in "[a-z]{1,3}",
            hi in "[a-z]{1,3}",
        ) {
            let mut d = Dictionary::new();
            d.encode_all(words.iter().map(String::as_str));
            let bv = d.range_codes(Bound::Included(lo.as_str()), Bound::Excluded(hi.as_str()));
            for code in 0..d.len() as u32 {
                let v = d.value_of(code).unwrap();
                let expect = v >= lo.as_str() && v < hi.as_str();
                prop_assert_eq!(bv.get(code as usize), expect, "value {}", v);
            }
        }
    }
}
