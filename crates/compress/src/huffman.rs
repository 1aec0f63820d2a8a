//! Length-limited canonical Huffman coding.
//!
//! Code lengths come from a plain Huffman tree (sorted leaves, two-queue
//! merge, O(n) after the sort) whenever that tree is no deeper than the
//! length limit — an unconstrained optimum that happens to satisfy the
//! constraint is the constrained optimum. Only when the limit actually
//! binds (small limits, Fibonacci-like weights) does the package-merge
//! algorithm run. Both break weight ties the same way (a leaf before a
//! package, leaves in symbol order), and with that tie-break the two
//! produce the same length vector whenever both apply, so which one ran
//! is not observable in the output. Lengths are then turned into
//! canonical codes exactly as DEFLATE does, so only the length vector
//! needs to be transmitted.

use xfm_types::{Error, Result};

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length used by xdeflate (same as DEFLATE).
pub const MAX_CODE_LEN: u32 = 15;

/// Reusable buffers for [`code_lengths_into`].
///
/// `active_syms` and `leaves` describe the alphabet: the symbols with a
/// non-zero weight, and `(weight, leaf)` pairs sorted by weight, where a
/// leaf is an index into `active_syms`. `tree` is the Huffman tree.
/// The rest is the package-merge working set: items are `(weight, node)`
/// pairs; a node id below the active-symbol count is a leaf, anything
/// larger points into `arena`, whose entries hold the two child node
/// ids of a package.
#[derive(Debug, Clone, Default)]
pub struct HuffScratch {
    active_syms: Vec<u32>,
    leaves: Vec<(u64, u32)>,
    /// `(weight, parent)` per tree node, the sorted leaves first and the
    /// internal nodes after them in creation order; the parent slot is
    /// overwritten with the node's depth once the tree is complete.
    tree: Vec<(u64, u32)>,
    arena: Vec<(u32, u32)>,
    list: Vec<(u64, u32)>,
    merged: Vec<(u64, u32)>,
    stack: Vec<u32>,
}

impl HuffScratch {
    /// Creates empty buffers (first use sizes them).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes optimal length-limited code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (absent). A single-symbol
/// alphabet gets length 1.
///
/// Thin wrapper over [`code_lengths_into`] with fresh buffers.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if more than `2^max_len` symbols have
/// non-zero frequency (no prefix code of that length exists).
///
/// # Examples
///
/// ```
/// use xfm_compress::huffman::code_lengths;
///
/// let lens = code_lengths(&[10, 1, 1, 0], 15)?;
/// assert_eq!(lens[3], 0);            // absent symbol
/// assert!(lens[0] <= lens[1]);       // frequent symbol gets short code
/// # Ok::<(), xfm_types::Error>(())
/// ```
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Result<Vec<u32>> {
    let mut lens = Vec::new();
    code_lengths_into(freqs, max_len, &mut HuffScratch::new(), &mut lens)?;
    Ok(lens)
}

/// [`code_lengths`] into caller-provided buffers: `lens` is cleared and
/// refilled, `scratch` holds the working set. Steady-state calls perform
/// no heap allocation.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if more than `2^max_len` symbols have
/// non-zero frequency.
pub fn code_lengths_into(
    freqs: &[u64],
    max_len: u32,
    scratch: &mut HuffScratch,
    lens: &mut Vec<u32>,
) -> Result<()> {
    if sort_leaves(freqs, max_len, scratch, lens)? < 2 {
        return Ok(());
    }
    if !huffman_lengths(max_len, scratch, lens) {
        package_merge_lengths(max_len, scratch, lens);
    }
    debug_assert!(lens.iter().all(|&l| l <= max_len));
    Ok(())
}

/// Zeroes `lens`, collects the active symbols and sorts them into
/// `scratch.leaves`; alphabets of fewer than two symbols are settled
/// here. Returns the number of active symbols.
fn sort_leaves(
    freqs: &[u64],
    max_len: u32,
    scratch: &mut HuffScratch,
    lens: &mut Vec<u32>,
) -> Result<usize> {
    lens.clear();
    lens.resize(freqs.len(), 0);
    scratch.active_syms.clear();
    scratch
        .active_syms
        .extend((0..freqs.len()).filter(|&i| freqs[i] > 0).map(|i| i as u32));
    let n = scratch.active_syms.len();
    if n < 2 {
        if let Some(&only) = scratch.active_syms.first() {
            lens[only as usize] = 1;
        }
        return Ok(n);
    }
    if n > (1usize << max_len.min(31)) {
        return Err(Error::InvalidConfig(format!(
            "{n} symbols cannot fit codes of at most {max_len} bits"
        )));
    }
    // Sorted by (weight, symbol order) — identical ordering to a stable
    // sort by weight over the ascending symbol list.
    scratch.leaves.clear();
    scratch.leaves.extend(
        scratch
            .active_syms
            .iter()
            .enumerate()
            .map(|(leaf, &sym)| (freqs[sym as usize], leaf as u32)),
    );
    scratch.leaves.sort_unstable_by_key(|&(w, leaf)| (w, leaf));
    Ok(n)
}

/// Builds the Huffman tree over the sorted leaves with the two-queue
/// method: internal nodes are created in non-decreasing weight order,
/// so the two lightest unmerged nodes are always at the front of the
/// leaf queue or of the internal-node queue. Writes the depths into
/// `lens` and returns `true` if none exceeds `max_len`; otherwise
/// leaves `lens` untouched and returns `false`.
fn huffman_lengths(max_len: u32, scratch: &mut HuffScratch, lens: &mut [u32]) -> bool {
    let HuffScratch {
        active_syms,
        leaves,
        tree,
        ..
    } = scratch;
    let n = leaves.len();
    tree.clear();
    tree.extend(leaves.iter().map(|&(w, _)| (w, 0)));
    let (mut leaf, mut internal) = (0usize, n);
    for next in n..2 * n - 1 {
        let mut weight = 0u64;
        for _ in 0..2 {
            // Ties take the leaf, as package-merge does.
            let take_leaf = leaf < n && (internal == next || tree[leaf].0 <= tree[internal].0);
            let child = if take_leaf { &mut leaf } else { &mut internal };
            weight += tree[*child].0;
            tree[*child].1 = next as u32;
            *child += 1;
        }
        tree.push((weight, 0));
    }
    // Parents always sit above their children, so one descending pass
    // turns parent links into depths (the root, last, has depth 0).
    let mut deepest = 0;
    for i in (0..2 * n - 2).rev() {
        let parent = tree[i].1 as usize;
        tree[i].1 = tree[parent].1 + 1;
        deepest = deepest.max(tree[i].1);
    }
    if deepest > max_len {
        return false;
    }
    for (&(_, leaf), &(_, depth)) in leaves.iter().zip(tree.iter()) {
        lens[active_syms[leaf as usize] as usize] = depth;
    }
    true
}

/// Package-merge (Larmore–Hirschberg): optimal lengths under a limit
/// the Huffman tree exceeds.
fn package_merge_lengths(max_len: u32, scratch: &mut HuffScratch, lens: &mut [u32]) {
    let n = scratch.leaves.len();
    scratch.arena.clear();
    scratch.list.clear();
    scratch.list.extend_from_slice(&scratch.leaves);
    for _ in 1..max_len {
        // Package: pair consecutive items into arena nodes.
        scratch.merged.clear();
        let packages = scratch.list.len() / 2;
        let (mut a, mut b) = (0usize, 0usize);
        // Merge the (sorted) leaves with the (sorted) packages; ties
        // take the leaf first, matching the reference implementation.
        while a < scratch.leaves.len() || b < packages {
            let package_weight = (b < packages).then(|| {
                let (w0, _) = scratch.list[2 * b];
                let (w1, _) = scratch.list[2 * b + 1];
                w0 + w1
            });
            let take_leaf = match (scratch.leaves.get(a), package_weight) {
                (Some(&(w, _)), Some(pw)) => w <= pw,
                (Some(_), None) => true,
                _ => false,
            };
            if take_leaf {
                scratch.merged.push(scratch.leaves[a]);
                a += 1;
            } else {
                let (w0, n0) = scratch.list[2 * b];
                let (w1, n1) = scratch.list[2 * b + 1];
                let id = (n + scratch.arena.len()) as u32;
                scratch.arena.push((n0, n1));
                scratch.merged.push((w0 + w1, id));
                b += 1;
            }
        }
        std::mem::swap(&mut scratch.list, &mut scratch.merged);
    }

    // The first 2n-2 items define the code: each leaf reachable from an
    // item's node adds one to its symbol's code length.
    for &(_, node) in scratch.list.iter().take(2 * n - 2) {
        scratch.stack.clear();
        scratch.stack.push(node);
        while let Some(id) = scratch.stack.pop() {
            if (id as usize) < n {
                lens[scratch.active_syms[id as usize] as usize] += 1;
            } else {
                let (l, r) = scratch.arena[id as usize - n];
                scratch.stack.push(l);
                scratch.stack.push(r);
            }
        }
    }
}

/// A canonical Huffman encoder: symbol -> (code, length).
///
/// Codes are stored bit-reversed so a symbol is emitted with a single
/// [`BitWriter::write_bits`] call: writing the reversed code LSB-first
/// produces exactly the MSB-first bit order of
/// [`BitWriter::write_code_msb`].
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// `(reversed_code, length)` per symbol.
    codes: Vec<(u32, u32)>,
}

impl Encoder {
    /// Builds the canonical codes for the given length vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the lengths violate the Kraft
    /// inequality (no prefix code exists) or exceed [`MAX_CODE_LEN`].
    pub fn from_lengths(lens: &[u32]) -> Result<Self> {
        let mut enc = Self::default();
        enc.rebuild(lens)?;
        Ok(enc)
    }

    /// Rebuilds the code table in place, reusing its storage. A scratch-
    /// held encoder performs no heap allocation once warmed up.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn rebuild(&mut self, lens: &[u32]) -> Result<()> {
        validate_lengths(lens)?;
        let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lens {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code + bl_count[(len - 1) as usize]) << 1;
            next_code[len as usize] = code;
        }
        self.codes.clear();
        self.codes.extend(lens.iter().map(|&l| {
            if l == 0 {
                (0, 0)
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                (c.reverse_bits() >> (32 - l), l)
            }
        }));
        Ok(())
    }

    /// Writes the code for `symbol` to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (length 0) or is out of range.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let (rev, len) = self.codes[symbol];
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(rev, len);
    }

    /// Returns the code length for `symbol` (0 if absent).
    #[must_use]
    pub fn length(&self, symbol: usize) -> u32 {
        self.codes[symbol].1
    }
}

/// Width of the [`Decoder`] primary lookup table in bits.
const PRIMARY_BITS: u32 = 10;

/// A canonical Huffman decoder.
///
/// Decoding peeks [`PRIMARY_BITS`] bits and resolves codes up to that
/// length with one table load; longer (rare) codes fall back to the
/// bit-at-a-time first-code arithmetic.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// `first_code[len]`, `offset[len]` into `symbols`, `count[len]`.
    first_code: Vec<u32>,
    offset: Vec<u32>,
    count: Vec<u32>,
    symbols: Vec<u16>,
    max_len: u32,
    /// Primary table indexed by the next `PRIMARY_BITS` stream bits
    /// (LSB-first); entries pack `symbol << 4 | code_len`, 0 = miss.
    primary: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from the canonical length vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn from_lengths(lens: &[u32]) -> Result<Self> {
        let mut dec = Self::default();
        dec.rebuild(lens)?;
        Ok(dec)
    }

    /// Rebuilds the decode tables in place, reusing their storage.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on invalid lengths (Kraft violation).
    pub fn rebuild(&mut self, lens: &[u32]) -> Result<()> {
        validate_lengths(lens)?;
        let max = lens.iter().copied().max().unwrap_or(0);
        self.count.clear();
        self.count.resize((max + 1) as usize, 0);
        for &l in lens {
            if l > 0 {
                self.count[l as usize] += 1;
            }
        }
        self.first_code.clear();
        self.first_code.resize((max + 1) as usize, 0);
        self.offset.clear();
        self.offset.resize((max + 1) as usize, 0);
        let mut code = 0u32;
        let mut sym_base = 0u32;
        for len in 1..=max as usize {
            code = (code + self.count[len - 1]) << 1;
            self.first_code[len] = code;
            self.offset[len] = sym_base;
            sym_base += self.count[len];
        }
        // Symbols sorted by (length, symbol index) — canonical order.
        self.symbols.clear();
        for len in 1..=max {
            for (i, &l) in lens.iter().enumerate() {
                if l == len {
                    self.symbols.push(i as u16);
                }
            }
        }
        self.max_len = max;

        // Primary table: for every code of length ≤ PRIMARY_BITS, fill
        // all slots whose low `len` bits equal the bit-reversed code
        // (the stream delivers the code MSB-first, so the first stream
        // bit lands in bit 0 of the peeked index). Stale entries from a
        // previous rebuild are cleared so they fall back to the exact
        // (error-checked) path rather than decode wrongly.
        self.primary.clear();
        self.primary.resize(1 << PRIMARY_BITS, 0);
        if lens.len() <= (u16::MAX >> 4) as usize {
            for len in 1..=max.min(PRIMARY_BITS) {
                let code = self.first_code[len as usize];
                let base = self.offset[len as usize];
                for rel in 0..self.count[len as usize] {
                    let sym = self.symbols[(base + rel) as usize];
                    let rev = (code + rel).reverse_bits() >> (32 - len);
                    let entry = (sym << 4) | len as u16;
                    let mut slot = rev;
                    while (slot as usize) < self.primary.len() {
                        self.primary[slot as usize] = entry;
                        slot += 1 << len;
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the bits do not form a valid code or
    /// the stream ends early.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        // Fast path: one table load resolves codes ≤ PRIMARY_BITS long.
        // peek_bits pads past end-of-stream with zeros; consume() still
        // errors if the matched length exceeds the real stream.
        let idx = r.peek_bits(PRIMARY_BITS) as usize;
        let entry = self.primary.get(idx).copied().unwrap_or(0);
        if entry != 0 {
            r.consume(u32::from(entry & 0xf))?;
            return Ok(entry >> 4);
        }
        self.decode_slow(r)
    }

    /// Bit-at-a-time fallback for codes longer than [`PRIMARY_BITS`]
    /// (or invalid bit patterns).
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | r.read_bit()?;
            let rel = code.wrapping_sub(self.first_code[len]);
            if rel < self.count[len] {
                return Ok(self.symbols[(self.offset[len] + rel) as usize]);
            }
        }
        Err(Error::Corrupt("invalid Huffman code".into()))
    }
}

fn validate_lengths(lens: &[u32]) -> Result<()> {
    let mut kraft = 0u64;
    for &l in lens {
        if l > MAX_CODE_LEN {
            return Err(Error::Corrupt(format!("code length {l} exceeds limit")));
        }
        if l > 0 {
            kraft += 1u64 << (MAX_CODE_LEN - l);
        }
    }
    // A single symbol of length 1 (kraft = 2^14) is allowed; otherwise the
    // code must not over-subscribe the tree.
    if kraft > 1u64 << MAX_CODE_LEN {
        return Err(Error::Corrupt(
            "code lengths violate Kraft inequality".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference [`code_lengths`] is checked against: package-merge
    /// always, whether or not the limit binds.
    fn package_merge_code_lengths(freqs: &[u64], max_len: u32) -> Result<Vec<u32>> {
        let mut scratch = HuffScratch::new();
        let mut lens = Vec::new();
        if sort_leaves(freqs, max_len, &mut scratch, &mut lens)? >= 2 {
            package_merge_lengths(max_len, &mut scratch, &mut lens);
        }
        Ok(lens)
    }

    fn cost(freqs: &[u64], lens: &[u32]) -> u64 {
        freqs
            .iter()
            .zip(lens)
            .map(|(&f, &l)| f * u64::from(l))
            .sum()
    }

    /// `sum 2^-len` scaled by `2^MAX_CODE_LEN`.
    fn kraft(lens: &[u32]) -> u64 {
        lens.iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum()
    }

    /// Frequency vectors shaped like token statistics: many absent
    /// symbols, many ties among small counts, a few heavy symbols, and
    /// geometric tails that push plain Huffman past small limits.
    fn arb_freqs() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            prop::collection::vec(0u64..6, 2..300),
            prop::collection::vec(0u64..5000, 2..300),
            prop::collection::vec(
                prop_oneof![Just(0u64), Just(1), 0u64..40, 0u64..100_000],
                2..300
            ),
            (2usize..40, 0u32..3)
                .prop_map(|(n, base)| (0..n).map(|i| 1u64 << (i as u32 / (base + 1))).collect()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// At the limit xdeflate uses, the lengths are those package-merge
        /// returns — which also makes them Kraft-complete and of equal
        /// cost — whichever of the two paths produced them.
        #[test]
        fn lengths_equal_package_merge_at_limit_15(freqs in arb_freqs()) {
            let lens = code_lengths(&freqs, MAX_CODE_LEN).unwrap();
            let reference = package_merge_code_lengths(&freqs, MAX_CODE_LEN).unwrap();
            prop_assert_eq!(cost(&freqs, &lens), cost(&freqs, &reference));
            if freqs.iter().filter(|&&f| f > 0).count() >= 2 {
                prop_assert_eq!(kraft(&lens), 1 << MAX_CODE_LEN);
            }
            prop_assert_eq!(lens, reference);
        }

        /// Small limits, where plain Huffman is often too deep and the
        /// fallback runs: still exactly the package-merge answer.
        #[test]
        fn lengths_equal_package_merge_at_small_limits(freqs in arb_freqs(), max_len in 1u32..=8) {
            let reference = package_merge_code_lengths(&freqs, max_len);
            match code_lengths(&freqs, max_len) {
                Ok(lens) => {
                    prop_assert!(lens.iter().all(|&l| l <= max_len));
                    prop_assert_eq!(lens, reference.unwrap());
                }
                Err(_) => prop_assert!(reference.is_err()),
            }
        }
    }

    fn round_trip(freqs: &[u64], message: &[u16]) {
        let lens = code_lengths(freqs, MAX_CODE_LEN).unwrap();
        let enc = Encoder::from_lengths(&lens).unwrap();
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut w = BitWriter::new();
        for &s in message {
            enc.encode(&mut w, s as usize);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn skewed_distribution_round_trips() {
        let freqs = [1000, 500, 100, 10, 1, 1, 1, 1];
        let msg: Vec<u16> = (0..8).cycle().take(100).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let lens = code_lengths(&[100, 50, 10, 1], MAX_CODE_LEN).unwrap();
        assert!(lens[0] <= lens[1]);
        assert!(lens[1] <= lens[2]);
        assert!(lens[2] <= lens[3]);
    }

    #[test]
    fn kraft_equality_holds_for_optimal_codes() {
        let freqs = [7, 6, 5, 4, 3, 2, 1];
        let lens = code_lengths(&freqs, MAX_CODE_LEN).unwrap();
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft {kraft}");
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-like weights force deep trees in unconstrained Huffman.
        let freqs: Vec<u64> = {
            let mut f = vec![1u64, 1];
            for i in 2..30 {
                let next = f[i - 1] + f[i - 2];
                f.push(next);
            }
            f
        };
        let lens = code_lengths(&freqs, 8).unwrap();
        assert!(lens.iter().all(|&l| l <= 8 && l > 0));
        let kraft: f64 = lens.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    #[test]
    fn single_symbol_alphabet() {
        let lens = code_lengths(&[0, 42, 0], MAX_CODE_LEN).unwrap();
        assert_eq!(lens, vec![0, 1, 0]);
        round_trip(&[0, 42, 0], &[1, 1, 1]);
    }

    #[test]
    fn empty_alphabet() {
        let lens = code_lengths(&[0, 0], MAX_CODE_LEN).unwrap();
        assert_eq!(lens, vec![0, 0]);
    }

    #[test]
    fn too_many_symbols_for_limit_rejected() {
        let freqs = vec![1u64; 16];
        assert!(code_lengths(&freqs, 3).is_err());
        assert!(code_lengths(&freqs, 4).is_ok());
    }

    #[test]
    fn decoder_rejects_garbage() {
        // Lengths for a 2-symbol code; a truncated stream must error.
        let lens = vec![1, 1];
        let dec = Decoder::from_lengths(&lens).unwrap();
        let mut r = BitReader::new(&[]);
        assert!(dec.decode(&mut r).is_err());
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three symbols of length 1 violate Kraft.
        assert!(Encoder::from_lengths(&[1, 1, 1]).is_err());
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn full_byte_alphabet_round_trips() {
        let freqs: Vec<u64> = (0..256).map(|i| (i % 7 + 1) as u64 * 3).collect();
        let msg: Vec<u16> = (0..256).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_lengths() {
        let cases: Vec<Vec<u64>> = vec![
            vec![1000, 500, 100, 10, 1, 1, 1, 1],
            vec![7, 6, 5, 4, 3, 2, 1],
            (0..256).map(|i| (i % 7 + 1) as u64 * 3).collect(),
            vec![0, 42, 0],
            vec![0, 0],
            vec![5, 5, 5, 5, 5, 5, 5, 5], // all-tied weights
        ];
        let mut scratch = HuffScratch::new();
        let mut lens = Vec::new();
        for freqs in &cases {
            code_lengths_into(freqs, MAX_CODE_LEN, &mut scratch, &mut lens).unwrap();
            assert_eq!(lens, code_lengths(freqs, MAX_CODE_LEN).unwrap());
        }
    }

    #[test]
    fn rebuilt_coders_match_fresh_ones() {
        let mut enc = Encoder::default();
        let mut dec = Decoder::default();
        for lens in [vec![1u32, 2, 2], vec![2, 2, 2, 2], vec![1, 1]] {
            enc.rebuild(&lens).unwrap();
            dec.rebuild(&lens).unwrap();
            let fresh = Encoder::from_lengths(&lens).unwrap();
            let mut w1 = BitWriter::new();
            let mut w2 = BitWriter::new();
            for s in 0..lens.len() {
                enc.encode(&mut w1, s);
                fresh.encode(&mut w2, s);
            }
            let bytes = w1.finish();
            assert_eq!(bytes, w2.finish());
            let mut r = BitReader::new(&bytes);
            for s in 0..lens.len() {
                assert_eq!(dec.decode(&mut r).unwrap(), s as u16);
            }
        }
    }
}
