//! SQL `LIKE` pattern matching shared by every engine.
//!
//! The host Volcano executor evaluates `LIKE` per row over decoded
//! strings; the RAPID compiler evaluates the same pattern once per
//! dictionary entry and lowers the result to a qualifying-code bitmap —
//! except a literal prefix followed only by `%`s, whose codes it finds by
//! bisecting the sorted dictionary (`Dictionary::prefix_codes`, §4.2).
//! Both must agree on every pattern, so the matcher lives here, next to
//! the dictionary, and both sides call it. It walks the pattern and text
//! bytes in place and allocates nothing.
//!
//! Supported metacharacters are the SQL core set: `%` matches any run of
//! characters (including the empty run) and `_` matches exactly one
//! character. There is no escape syntax — none of the SQL front end's
//! callers produce one.

/// Whether `text` matches the SQL LIKE `pattern` (`%` = any run, `_` =
/// exactly one character). Matching is over `char`s, not bytes, so `_`
/// consumes one Unicode scalar value.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    // Two-pointer scan with backtracking to the last `%`: O(p·t) worst
    // case, no recursion, handles runs of consecutive `%`. Literal bytes
    // compare one at a time: two chars that share a lead byte have the
    // same length, so both indices are on a char boundary whenever the
    // pattern's is — the only places `_` and `%` are read.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                star = Some((pi + 1, ti));
                pi += 1;
            }
            Some(b'_') => {
                pi += 1;
                ti += char_len(t[ti]);
            }
            Some(&c) if c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => {
                // Mismatch: let the last `%` absorb one more character.
                let Some((sp, st)) = star else {
                    return false;
                };
                pi = sp;
                ti = st + char_len(t[st]);
                star = Some((sp, ti));
            }
        }
    }
    p[pi..].iter().all(|&b| b == b'%')
}

/// The length of the UTF-8 char whose lead byte is `lead`.
fn char_len(lead: u8) -> usize {
    lead.leading_ones().max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::like_match;

    /// Independent oracle: recursive descent straight off the LIKE
    /// definition. Exponential in the worst case but fine at test sizes.
    fn oracle(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| oracle(&p[1..], &t[k..])),
            Some('_') => !t.is_empty() && oracle(&p[1..], &t[1..]),
            Some(&c) => t.first() == Some(&c) && oracle(&p[1..], &t[1..]),
        }
    }

    fn check(pattern: &str, text: &str) -> bool {
        let got = like_match(pattern, text);
        let want = oracle(
            &pattern.chars().collect::<Vec<_>>(),
            &text.chars().collect::<Vec<_>>(),
        );
        assert_eq!(got, want, "LIKE '{pattern}' on '{text}'");
        got
    }

    #[test]
    fn exact_and_empty_patterns() {
        assert!(check("abc", "abc"));
        assert!(!check("abc", "abd"));
        assert!(!check("abc", "ab"));
        assert!(check("", ""));
        assert!(!check("", "a"));
    }

    #[test]
    fn percent_runs() {
        assert!(check("%", ""));
        assert!(check("%", "anything"));
        assert!(check("%%", "x"));
        assert!(check("%%", ""));
        assert!(check("a%%c", "abc"));
        assert!(check("a%%c", "ac"));
        assert!(!check("a%%c", "ab"));
        assert!(check("%b%", "abc"));
        assert!(check("a%c%e", "abcde"));
        assert!(!check("a%c%e", "abdde"));
    }

    #[test]
    fn suffix_and_inner_percent() {
        assert!(check("%ing", "running"));
        assert!(!check("%ing", "runner"));
        assert!(check("run%", "running"));
        assert!(check("r%g", "running"));
        assert!(!check("r%x", "running"));
    }

    #[test]
    fn underscore_positions() {
        assert!(check("_bc", "abc"));
        assert!(!check("_bc", "bc"));
        assert!(check("ab_", "abc"));
        assert!(!check("ab_", "ab"));
        assert!(check("a_c", "abc"));
        assert!(check("___", "abc"));
        assert!(!check("___", "ab"));
        assert!(check("_%", "a"));
        assert!(!check("_%", ""));
        assert!(check("%_", "a"));
        assert!(!check("%_", ""));
    }

    #[test]
    fn percent_underscore_interplay() {
        assert!(check("%a_", "banan"));
        assert!(check("_%_", "ab"));
        assert!(!check("_%_", "a"));
        assert!(check("%_%", "abc"));
        assert!(check("a_%c", "abxc"));
        assert!(!check("a_%c", "ac"));
        // A `%` retry that stepped one byte into the crab would let the two
        // `_` take its trailing bytes: three chars are not four.
        assert!(!check("%__aé", "🦀aé"));
    }

    /// Every string of at most four symbols drawn from `syms`.
    fn strings_over(syms: &[char]) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut last = all.clone();
        for _ in 0..4 {
            last = last
                .iter()
                .flat_map(|s| syms.iter().map(move |c| format!("{s}{c}")))
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    #[test]
    fn exhaustive_small_alphabet_against_oracle() {
        // Every pattern of length <=4 over {a, é, %, _} against every text
        // of length <=4 over {a, é, 🦀, b}: 116k pairs, airtight for the
        // core logic. The two- and four-byte chars check that `_` consumes
        // one char, not one byte, and that a `%` retry steps over a whole
        // char.
        let pats = strings_over(&['a', 'é', '%', '_']);
        let texts = strings_over(&['a', 'é', '🦀', 'b']);
        assert_eq!(pats.len() * texts.len(), 116_281);
        for p in &pats {
            for t in &texts {
                check(p, t);
            }
        }
    }
}
