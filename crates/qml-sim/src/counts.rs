//! Counts over classical words, stored as one sorted arena.
//!
//! A readout is a few hundred to a few thousand distinct words of one width
//! with a count each. [`Counts`] keeps the words concatenated, in ascending
//! byte order, in one `String`, and their counts in one `Vec<u64>`: two
//! allocations per readout, not a `String` and a tree node per word. It
//! iterates in the same order as a `BTreeMap<String, u64>` of the same
//! entries and serializes as the same JSON object, so digests, wire forms
//! and pinned hashes do not depend on which of the two a result holds, and
//! `==` works across the two types.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::iter::FusedIterator;

use serde::value::{from_value_any, to_value_any, Value};
use serde::{de, ser, Deserialize, Deserializer, Serialize, Serializer};

/// How often each classical word was observed, in ascending word order.
///
/// Every word of one `Counts` has the same length in bytes (a register's
/// width), which is what lets the words share one arena without a table of
/// offsets.
///
/// ```
/// use qml_sim::Counts;
///
/// let counts: Counts = [("10", 3), ("01", 5), ("10", 1)].into_iter().collect();
/// assert_eq!(counts.len(), 2);
/// assert_eq!(counts.get("10"), Some(&4));
/// let order: Vec<&str> = counts.keys().collect();
/// assert_eq!(order, ["01", "10"]);
/// assert_eq!(serde_json::to_string(&counts).unwrap(), r#"{"01":5,"10":4}"#);
/// ```
#[derive(Clone, Default)]
pub struct Counts {
    /// Length in bytes of every word; 0 when there are no words.
    width: usize,
    /// The distinct words, concatenated in ascending byte order.
    words: String,
    /// `counts[i]` is the count of word `i`.
    counts: Vec<u64>,
}

impl Counts {
    /// No words.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts from `(word, n)` pairs whose words are unsigned integers of
    /// `width` bits, rendered most significant bit first as `'0'`/`'1'`, so
    /// integer order is word order. `runs` is sorted in place and pairs with
    /// the same word are merged; each distinct word is rendered once.
    ///
    /// # Panics
    /// Panics if `width` exceeds 64.
    pub(crate) fn from_bit_runs(width: usize, runs: &mut [(u64, u64)]) -> Self {
        assert!(width <= 64, "a {width}-bit word does not fit in a u64");
        runs.sort_unstable_by_key(|&(word, _)| word);
        let distinct = runs.chunk_by(|a, b| a.0 == b.0).count();
        let mut counts = Counts {
            width: if distinct == 0 { 0 } else { width },
            words: String::with_capacity(width * distinct),
            counts: Vec::with_capacity(distinct),
        };
        for run in runs.chunk_by(|a, b| a.0 == b.0) {
            let word = run[0].0;
            let bits = (0..width).rev().map(|bit| (word >> bit) & 1);
            counts
                .words
                .extend(bits.map(|b| if b == 1 { '1' } else { '0' }));
            counts.counts.push(run.iter().map(|&(_, n)| n).sum());
        }
        counts
    }

    /// Counts from `words`, the words concatenated in any order, each
    /// `width` bytes long, with `counts[i]` the count of word `i`. Equal
    /// words are merged. Already sorted, distinct words are kept as they
    /// are; otherwise they are sorted into a new arena.
    ///
    /// # Panics
    /// Panics if `words` is not `counts.len()` words of `width` bytes, each
    /// starting on a character boundary.
    pub fn from_arena(width: usize, words: String, counts: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            width * counts.len(),
            "{} counts need {} bytes of {width}-byte words",
            counts.len(),
            width * counts.len()
        );
        if counts.is_empty() {
            return Counts::new();
        }
        let unsorted = Counts {
            width,
            words,
            counts,
        };
        let ascending = (1..unsorted.len()).all(|i| unsorted.word(i - 1) < unsorted.word(i));
        if ascending {
            return unsorted;
        }
        let mut order: Vec<usize> = (0..unsorted.len()).collect();
        order.sort_by(|&a, &b| unsorted.word(a).cmp(unsorted.word(b)));
        let distinct = order
            .chunk_by(|&a, &b| unsorted.word(a) == unsorted.word(b))
            .count();
        let mut sorted = Counts {
            width,
            words: String::with_capacity(width * distinct),
            counts: Vec::with_capacity(distinct),
        };
        for same in order.chunk_by(|&a, &b| unsorted.word(a) == unsorted.word(b)) {
            sorted.words.push_str(unsorted.word(same[0]));
            sorted
                .counts
                .push(same.iter().map(|&i| unsorted.counts[i]).sum());
        }
        sorted
    }

    /// Collect `(word, n)` pairs, or say why they do not form one readout.
    fn try_collect<S: AsRef<str>>(
        pairs: impl IntoIterator<Item = (S, u64)>,
    ) -> Result<Self, String> {
        let pairs = pairs.into_iter();
        let (mut words, mut counts) = (String::new(), Vec::with_capacity(pairs.size_hint().0));
        let mut width = None;
        for (word, n) in pairs {
            let word = word.as_ref();
            let width = *width.get_or_insert(word.len());
            if word.len() != width {
                return Err(format!(
                    "word {word:?} has {} bytes, an earlier word {width}",
                    word.len()
                ));
            }
            words.push_str(word);
            counts.push(n);
        }
        Ok(Counts::from_arena(width.unwrap_or(0), words, counts))
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no word was observed.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Word `i` in ascending order.
    fn word(&self, i: usize) -> &str {
        &self.words[i * self.width..(i + 1) * self.width]
    }

    /// Index of `word`, by binary search.
    fn position(&self, word: &str) -> Option<usize> {
        if word.len() != self.width {
            return None;
        }
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.word(mid).cmp(word) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The count of `word`, if it was observed.
    pub fn get(&self, word: &str) -> Option<&u64> {
        self.position(word).map(|i| &self.counts[i])
    }

    /// True if `word` was observed.
    pub fn contains_key(&self, word: &str) -> bool {
        self.position(word).is_some()
    }

    /// `(word, count)` in ascending word order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            width: self.width,
            words: &self.words,
            counts: self.counts.iter(),
        }
    }

    /// The words, in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &str> + ExactSizeIterator + '_ {
        self.iter().map(|(word, _)| word)
    }

    /// The counts, in ascending word order.
    pub fn values(&self) -> std::slice::Iter<'_, u64> {
        self.counts.iter()
    }
}

/// Iterator over a [`Counts`]' `(word, count)` pairs, in ascending word order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    width: usize,
    /// The words not yet yielded from either end.
    words: &'a str,
    counts: std::slice::Iter<'a, u64>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a u64);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.counts.next()?;
        let (word, rest) = self.words.split_at(self.width);
        self.words = rest;
        Some((word, n))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.counts.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let n = self.counts.next_back()?;
        let (rest, word) = self.words.split_at(self.words.len() - self.width);
        self.words = rest;
        Some((word, n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FusedIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Counts {
    type Item = (&'a str, &'a u64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// # Panics
/// Panics if the words differ in length: one readout's words all have its
/// register's width.
impl<S: AsRef<str>> FromIterator<(S, u64)> for Counts {
    fn from_iter<I: IntoIterator<Item = (S, u64)>>(pairs: I) -> Self {
        Counts::try_collect(pairs).unwrap_or_else(|e| panic!("not one readout: {e}"))
    }
}

impl PartialEq for Counts {
    fn eq(&self, other: &Counts) -> bool {
        // Equal words and equal lengths imply equal widths.
        self.counts == other.counts && self.words == other.words
    }
}

impl Eq for Counts {}

/// The order of `BTreeMap<String, u64>`: entries compared in word order.
impl Ord for Counts {
    fn cmp(&self, other: &Counts) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Counts {
    fn partial_cmp(&self, other: &Counts) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<BTreeMap<String, u64>> for Counts {
    fn eq(&self, map: &BTreeMap<String, u64>) -> bool {
        self.len() == map.len()
            && self
                .iter()
                .zip(map)
                .all(|((word, n), (key, m))| word == key && n == m)
    }
}

impl PartialEq<Counts> for BTreeMap<String, u64> {
    fn eq(&self, counts: &Counts) -> bool {
        counts == self
    }
}

impl fmt::Debug for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The JSON object a `BTreeMap<String, u64>` of the same entries writes.
impl Serialize for Counts {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let members = self
            .iter()
            .map(|(word, n)| Ok((word.to_owned(), to_value_any(n)?)))
            .collect::<Result<_, serde::value::ValueError>>()
            .map_err(<S::Error as ser::Error>::custom)?;
        serializer.serialize_value(Value::Object(members))
    }
}

impl<'de> Deserialize<'de> for Counts {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let Value::Object(members) = deserializer.take_value()? else {
            return Err(de::Error::custom("expected an object of word counts"));
        };
        let pairs = members
            .into_iter()
            .map(|(word, n)| Ok((word, from_value_any::<u64, D::Error>(n)?)))
            .collect::<Result<Vec<_>, D::Error>>()?;
        Counts::try_collect(pairs).map_err(de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for &(word, n) in pairs {
            *map.entry(word.to_owned()).or_insert(0) += n;
        }
        map
    }

    #[test]
    fn collects_like_a_summing_map() {
        let pairs = [("110", 2), ("001", 1), ("110", 5), ("000", 4), ("111", 0)];
        let counts: Counts = pairs.into_iter().collect();
        let reference = map(&pairs);
        assert_eq!(counts, reference);
        assert_eq!(reference, counts);
        let forward: Vec<_> = counts.iter().collect();
        let backward: Vec<_> = counts.iter().rev().collect();
        let mut expected: Vec<_> = reference.iter().map(|(w, n)| (w.as_str(), n)).collect();
        assert_eq!(forward, expected);
        expected.reverse();
        assert_eq!(backward, expected);
        assert_eq!(counts.iter().len(), 4);
        assert_eq!(counts.get("110"), Some(&7));
        assert_eq!(counts.get("010"), None);
        assert_eq!(counts.get("11"), None, "a word of another width");
        assert!(counts.contains_key("111"));
        assert_eq!(counts.values().sum::<u64>(), 12);
        assert_eq!(format!("{counts:?}"), format!("{reference:?}"));
    }

    #[test]
    fn bit_runs_render_most_significant_bit_first() {
        let mut runs = [(0b110, 2), (0b001, 1), (0b110, 5), (0b000, 4)];
        let counts = Counts::from_bit_runs(3, &mut runs);
        assert_eq!(counts, map(&[("110", 7), ("001", 1), ("000", 4)]));
        assert_eq!(Counts::from_bit_runs(5, &mut []), Counts::new());
        let empty_word = Counts::from_bit_runs(0, &mut [(0, 3), (0, 4)]);
        assert_eq!(empty_word, map(&[("", 7)]));
        assert_eq!(empty_word.get(""), Some(&7));
    }

    #[test]
    fn json_is_the_maps_json() {
        let pairs = [("10", 3), ("01", u64::MAX), ("11", 0)];
        let counts: Counts = pairs.into_iter().collect();
        let json = serde_json::to_string(&counts).unwrap();
        assert_eq!(json, serde_json::to_string(&map(&pairs)).unwrap());
        assert_eq!(serde_json::from_str::<Counts>(&json).unwrap(), counts);
        let empty = serde_json::to_string(&Counts::new()).unwrap();
        assert_eq!(empty, "{}");
        assert_eq!(
            serde_json::from_str::<Counts>(&empty).unwrap(),
            Counts::new()
        );
    }

    #[test]
    fn a_readout_has_one_width() {
        let err = serde_json::from_str::<Counts>(r#"{"0":1,"01":2}"#).unwrap_err();
        assert!(err.to_string().contains("bytes"), "{err}");
        assert!(serde_json::from_str::<Counts>("[1]").is_err());
        let mixed =
            std::panic::catch_unwind(|| [("0", 1), ("01", 2)].into_iter().collect::<Counts>());
        assert!(mixed.is_err());
    }

    #[test]
    fn sorted_arenas_are_kept_and_others_sorted() {
        let sorted = Counts::from_arena(2, "0011".into(), vec![1, 2]);
        assert_eq!(sorted, map(&[("00", 1), ("11", 2)]));
        let shuffled = Counts::from_arena(2, "110011".into(), vec![1, 2, 3]);
        assert_eq!(shuffled, map(&[("00", 2), ("11", 4)]));
        // Multi-byte words sort by their bytes, like `String`.
        let wide = Counts::from_arena(2, "é00".into(), vec![1, 2]);
        assert_eq!(wide, map(&[("é", 1), ("00", 2)]));
        assert_eq!(wide.keys().collect::<Vec<_>>(), ["00", "é"]);
    }
}
