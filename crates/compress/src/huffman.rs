//! Length-limited canonical Huffman coding.
//!
//! Code lengths come from a plain Huffman tree (leaves sorted by a
//! radix sort over the weight, two-queue merge, O(n) after the sort)
//! whenever that tree is no deeper than the length limit — an
//! unconstrained optimum that happens to satisfy the
//! constraint is the constrained optimum. Only when the limit actually
//! binds (small limits, Fibonacci-like weights) does the package-merge
//! algorithm run. Both break weight ties the same way (a leaf before a
//! package, leaves in symbol order), and with that tie-break the two
//! produce the same length vector whenever both apply, so which one ran
//! is not observable in the output. Lengths are then turned into
//! canonical codes exactly as DEFLATE does, so only the length vector
//! needs to be transmitted.
//!
//! Every step costs in proportion to what the alphabet holds, and none
//! branches on a weight: the merge picks each child by select, depths
//! come from one pass over the internal nodes and a walk down the
//! levels, and an [`Encoder`] is built over the symbols that have a
//! code, each length stepping its next code by a reversed increment.

use xfm_types::{Error, Result};

use crate::bitio::{BitReader, BitWriter};

/// Maximum code length used by xdeflate (same as DEFLATE).
pub const MAX_CODE_LEN: u32 = 15;

/// Reusable buffers for [`code_lengths_into`].
///
/// `active_syms` and `leaves` describe the alphabet: the symbols with a
/// non-zero weight, and one packed `(weight << LEAF_BITS) | leaf` word
/// per symbol, sorted, where a leaf is an index into `active_syms`;
/// `radix` is the other half of the leaf sort's ping-pong. `tree` is
/// the Huffman tree. The rest is the package-merge working set: items
/// are `(weight, node)` pairs; a node id below the active-symbol count
/// is a leaf, anything larger points into `arena`, whose entries hold
/// the two child node ids of a package.
#[derive(Debug, Clone, Default)]
pub struct HuffScratch {
    active_syms: Vec<u32>,
    leaves: Vec<u64>,
    radix: Vec<u64>,
    /// The Huffman tree, per node: the sorted leaves, one slot for a dry
    /// leaf queue, then the internal nodes in creation order. `weight`
    /// holds each node's weight; `link` each node's parent, overwritten
    /// with an internal node's depth once the tree is complete.
    weight: Vec<u64>,
    link: Vec<u32>,
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

    /// The symbols of the last fitted alphabet with a nonzero weight,
    /// in symbol order: those its code has a length for.
    pub(crate) fn active(&self) -> &[u32] {
        &self.active_syms
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

/// Bits of a packed leaf word that hold the leaf index; the weight sits
/// above them.
const LEAF_BITS: u32 = 16;

/// The `(weight, leaf)` pair a packed leaf word holds.
#[inline]
fn unpack_leaf(packed: u64) -> (u64, u32) {
    (
        packed >> LEAF_BITS,
        (packed & ((1 << LEAF_BITS) - 1)) as u32,
    )
}

/// Bits of the weight one pass of the leaf sort orders by.
const RADIX_BITS: u32 = 6;

/// Zeroes `lens`, collects the active symbols and sorts them into
/// `scratch.leaves`; alphabets of fewer than two symbols are settled
/// here. Returns the number of active symbols.
///
/// One pass over the alphabet compacts the active symbols and their leaf
/// words, in symbol order, without a branch per symbol. A stable LSD
/// radix sort over the weight, [`RADIX_BITS`] a pass, then orders them:
/// as many passes as the heaviest weight has digits (at most three on a
/// 4 KiB page), each a histogram, a prefix sum and a scatter, and
/// nothing in them branches on a weight. Each pass runs the two halves
/// of the words side by side, each with its own counts and cursors (the
/// second half's bucket starting where the first half's ends), so two
/// chains of counter updates interleave where there was one. Ties stay
/// in symbol order, so the result is the order of the packed words
/// themselves.
fn sort_leaves(
    freqs: &[u64],
    max_len: u32,
    scratch: &mut HuffScratch,
    lens: &mut Vec<u32>,
) -> Result<usize> {
    lens.clear();
    lens.resize(freqs.len(), 0);
    let HuffScratch {
        active_syms,
        leaves,
        radix,
        ..
    } = scratch;
    // Every symbol is written; only an active one is kept. Both halves
    // of the ping-pong hold the whole alphabet, whichever ends up as
    // `leaves`.
    active_syms.clear();
    active_syms.resize(freqs.len(), 0);
    leaves.clear();
    leaves.resize(freqs.len(), 0);
    // Every weight's bits, OR-ed: as wide as the heaviest.
    let (mut n, mut all) = (0, 0u64);
    for (sym, &w) in (0u32..).zip(freqs) {
        active_syms[n] = sym;
        leaves[n] = w << LEAF_BITS | n as u64;
        all |= w;
        n += usize::from(w != 0);
    }
    active_syms.truncate(n);
    leaves.truncate(n);
    if n < 2 {
        if let Some(&only) = active_syms.first() {
            lens[only as usize] = 1;
        }
        return Ok(n);
    }
    if n > (1usize << max_len.min(31)) {
        return Err(Error::InvalidConfig(format!(
            "{n} symbols cannot fit codes of at most {max_len} bits"
        )));
    }
    if n > 1 << LEAF_BITS || all >> (64 - LEAF_BITS) != 0 {
        return Err(Error::InvalidConfig(format!(
            "a leaf word holds at most 2^{LEAF_BITS} symbols and weights below 2^{}",
            64 - LEAF_BITS
        )));
    }
    radix.clear();
    radix.reserve(freqs.len());
    radix.resize(n, 0);
    const DIGITS: usize = 1 << RADIX_BITS;
    for pass in 0..(u64::BITS - all.leading_zeros()).div_ceil(RADIX_BITS) {
        let digit = |word: u64| (word >> (LEAF_BITS + pass * RADIX_BITS)) as usize % DIGITS;
        // An odd word out goes last, with the second half.
        let (pairs, odd) = (n / 2, n % 2 == 1);
        let (first, second) = leaves.split_at(pairs);
        let mut count = [[0u32; DIGITS]; 2];
        for (&a, &b) in first.iter().zip(second) {
            count[0][digit(a)] += 1;
            count[1][digit(b)] += 1;
        }
        if odd {
            count[1][digit(second[pairs])] += 1;
        }
        let (mut start, mut sum) = ([[0u32; DIGITS]; 2], 0);
        for d in 0..DIGITS {
            start[0][d] = sum;
            start[1][d] = sum + count[0][d];
            sum += count[0][d] + count[1][d];
        }
        for (&a, &b) in first.iter().zip(second) {
            let slot = &mut start[0][digit(a)];
            radix[*slot as usize] = a;
            *slot += 1;
            let slot = &mut start[1][digit(b)];
            radix[*slot as usize] = b;
            *slot += 1;
        }
        if odd {
            radix[start[1][digit(second[pairs])] as usize] = second[pairs];
        }
        std::mem::swap(leaves, radix);
    }
    Ok(n)
}

/// Builds the Huffman tree over the sorted leaves with the two-queue
/// method: internal nodes are created in non-decreasing weight order,
/// so the two lightest unmerged nodes are always at the front of the
/// leaf queue or of the internal-node queue. Writes the depths into
/// `lens` and returns `true` if none exceeds `max_len`; otherwise
/// leaves `lens` untouched and returns `false`.
///
/// Each child is picked by select, not by a branch: which queue's front
/// is lighter is a coin flip on most picks. Both fronts' weights, and
/// the weights behind them, are held in locals, so a pick waits on a
/// compare and not on a load; a queue that has run dry shows a front of
/// weight `u64::MAX`, and a leaf wins ties, as in package-merge.
fn huffman_lengths(max_len: u32, scratch: &mut HuffScratch, lens: &mut [u32]) -> bool {
    let HuffScratch {
        active_syms,
        leaves,
        weight,
        link,
        ..
    } = scratch;
    let n = leaves.len();
    // Leaves at 0..n, a dry leaf queue's front at n, internal nodes at
    // n + 1..2n in creation order (the root last), and one slot past
    // them to read ahead into.
    weight.clear();
    weight.extend(leaves.iter().map(|&packed| unpack_leaf(packed).0));
    weight.resize(2 * n + 1, u64::MAX);
    // Every internal node's link is written before it is read.
    if link.len() < 2 * n {
        link.resize(2 * n, 0);
    }
    let (mut leaf, mut front) = (0usize, n + 1);
    let (mut leaf_weight, mut front_weight) = (weight[0], u64::MAX);
    for next in n + 1..2 * n {
        let mut sum = 0u64;
        for _ in 0..2 {
            let (leaf_after, front_after) = (weight[leaf + 1], weight[front + 1]);
            let take_leaf = leaf_weight <= front_weight;
            // Only internal nodes need their parent. The front node is
            // written whichever child is picked: the node that picks it
            // writes last.
            link[front] = next as u32;
            sum += leaf_weight.min(front_weight);
            leaf_weight = std::hint::select_unpredictable(take_leaf, leaf_after, leaf_weight);
            front_weight = std::hint::select_unpredictable(take_leaf, front_weight, front_after);
            leaf += usize::from(take_leaf);
            front += usize::from(!take_leaf);
        }
        weight[next] = sum;
        // The node just made is the front when the queue had run dry.
        front_weight = std::hint::select_unpredictable(front == next, sum, front_weight);
    }
    // Parents sit above their children, so one descending pass turns
    // the internal nodes' parent links into depths (the root, last, has
    // depth 0). A node consumed earlier hangs below a parent created no
    // later, so depth never grows along either queue: the first internal
    // node is the deepest, and the leaves' depths fall along the sorted
    // leaves.
    link[2 * n - 1] = 0;
    for i in (n + 1..2 * n - 1).rev() {
        link[i] = link[link[i] as usize] + 1;
    }
    if link[n + 1] + 1 > max_len {
        return false;
    }
    // Each level's slots that no internal node fills are leaves, and
    // they go to the heaviest leaves not yet placed.
    let (mut slots, mut depth) = (1u32, 0u32);
    let (mut node, mut leaf) = (2 * n - 1, n);
    while slots > 0 {
        let mut internal = 0;
        while node > n && link[node] == depth {
            internal += 1;
            node -= 1;
        }
        for _ in internal..slots {
            leaf -= 1;
            lens[active_syms[unpack_leaf(leaves[leaf]).1 as usize] as usize] = depth;
        }
        (slots, depth) = (2 * internal, depth + 1);
    }
    true
}

/// Package-merge (Larmore–Hirschberg): optimal lengths under a limit
/// the Huffman tree exceeds.
fn package_merge_lengths(max_len: u32, scratch: &mut HuffScratch, lens: &mut [u32]) {
    let n = scratch.leaves.len();
    scratch.arena.clear();
    scratch.list.clear();
    scratch
        .list
        .extend(scratch.leaves.iter().map(|&packed| unpack_leaf(packed)));
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
                (Some(&packed), Some(pw)) => unpack_leaf(packed).0 <= pw,
                (Some(_), None) => true,
                _ => false,
            };
            if take_leaf {
                scratch.merged.push(unpack_leaf(scratch.leaves[a]));
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

/// Bits of a packed code word that hold its length; the bit-reversed
/// code sits above them. Five, not four: xdeflate packs a length
/// bucket's code with its extra bits — up to 22 bits — the same way.
pub(crate) const PACKED_LEN_BITS: u32 = 5;

/// A canonical Huffman encoder: symbol -> (code, length).
///
/// Codes are stored bit-reversed so a symbol is emitted with a single
/// [`BitWriter::write_bits`] call: writing the reversed code LSB-first
/// produces exactly the MSB-first bit order of
/// [`BitWriter::write_code_msb`]. Each symbol's code and length share
/// one packed word, `reversed_code << PACKED_LEN_BITS | length` (0 for
/// a symbol without a code).
///
/// A build walks the symbols that have a code, twice: once to count
/// the codes of each length, once to hand out codes in symbol order.
/// Each length keeps its next code bit-reversed and steps it by a
/// reversed increment, so no symbol's code is reversed on its own.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// The packed word per symbol.
    codes: Vec<u32>,
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
        let active = (0u32..)
            .zip(lens)
            .filter(|&(_, &l)| l > 0)
            .map(|(sym, _)| sym);
        self.build(lens, active);
        Ok(())
    }

    /// [`Self::rebuild`] for lengths known to be valid — a fitted code's
    /// — given the symbols that have a code, in symbol order.
    pub(crate) fn rebuild_active(&mut self, lens: &[u32], active: &[u32]) {
        debug_assert!(validate_lengths(lens).is_ok());
        debug_assert!(active.iter().all(|&sym| lens[sym as usize] > 0));
        self.build(lens, active.iter().copied());
    }

    fn build(&mut self, lens: &[u32], active: impl Iterator<Item = u32> + Clone) {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for sym in active.clone() {
            count[lens[sym as usize] as usize] += 1;
        }
        // The first code of each length, bit-reversed.
        let mut next = [0u32; MAX_CODE_LEN as usize + 1];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code + count[len as usize - 1]) << 1;
            next[len as usize] = code.reverse_bits() >> (32 - len);
        }
        self.codes.clear();
        self.codes.resize(lens.len(), 0);
        for sym in active {
            let len = lens[sym as usize];
            let reversed = next[len as usize];
            self.codes[sym as usize] = reversed << PACKED_LEN_BITS | len;
            next[len as usize] = reversed_increment(reversed, len);
        }
    }

    /// Writes the code for `symbol` to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code (length 0) or is out of range.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: usize) {
        let (rev, len) = self.code(symbol);
        assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(rev, len);
    }

    /// Returns the code length for `symbol` (0 if absent).
    #[must_use]
    pub fn length(&self, symbol: usize) -> u32 {
        self.code(symbol).1
    }

    /// `(bit-reversed code, length)` for `symbol`: what [`Self::encode`]
    /// writes, for a caller that writes it fused with the bits after it.
    #[inline]
    pub(crate) fn code(&self, symbol: usize) -> (u32, u32) {
        let packed = self.codes[symbol];
        (
            packed >> PACKED_LEN_BITS,
            packed & ((1 << PACKED_LEN_BITS) - 1),
        )
    }

    /// The packed word of every symbol.
    #[inline]
    pub(crate) fn packed(&self) -> &[u32] {
        &self.codes
    }
}

/// The `len`-bit canonical code after the one `reversed` holds, both
/// bit-reversed: the increment's carry runs from the top bit down, so
/// the top zero bit is set and every bit above it cleared. (After the
/// last code of a length, all ones, the result is never used.)
#[inline]
fn reversed_increment(reversed: u32, len: u32) -> u32 {
    let zeros = !reversed & ((1 << len) - 1);
    let top_zero = 0x8000_0000 >> (zeros | 1).leading_zeros();
    reversed & (top_zero - 1) | top_zero
}

/// Widest [`Decoder`] lookup table, in bits.
const PRIMARY_BITS: u32 = 10;

/// Low bits of a table entry: the code length, 0 for bits no code
/// starts with.
pub(crate) const ENTRY_LEN_MASK: u32 = 0xf;
/// Table entry of a code longer than the table is wide.
const ENTRY_LONG: u32 = 1 << 4;
/// An entry's payload sits above this many bits.
pub(crate) const ENTRY_PAYLOAD_SHIFT: u32 = 8;

// A length fills the length field exactly.
const _: () = assert!(MAX_CODE_LEN == ENTRY_LEN_MASK);

/// A canonical Huffman decoder.
///
/// One table of `2^min(max code length, PRIMARY_BITS)` entries, indexed
/// by the next stream bits (LSB-first), resolves every code that fits
/// its width with a single load; an entry is `payload | code length`.
/// Longer codes — rare, they belong to the least frequent symbols —
/// are found by first-code arithmetic over the next [`MAX_CODE_LEN`]
/// bits taken at once.
///
/// A build reads the lengths as `(length, run)` pairs, the form a block
/// header sends them in, and costs what the pairs and the table hold,
/// not the alphabet. One pass over the pairs counts the codes of each
/// length, gives each run its rank among the codes of its length and
/// chains the runs of a length together; no symbol is sorted. The table
/// then grows by doubling: it starts two entries wide, each code of a
/// length is stored once, at its bit-reversed value (read from
/// `REVERSED`) in the table of `2^len` entries, and every step to the
/// next length appends a copy of the table to itself.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    /// The lookup table; empty until the first rebuild.
    table: Vec<u32>,
    /// Width of `table` in bits.
    bits: u32,
    max_len: u32,
    /// Per code length: the first canonical code, the number of codes,
    /// and, for a length above `bits`, where its entries start in
    /// `long`.
    first_code: [u32; MAX_CODE_LEN as usize + 1],
    count: [u32; MAX_CODE_LEN as usize + 1],
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Entries of the codes longer than the table, sorted by (length,
    /// symbol index) — canonical order.
    long: Vec<u32>,
    /// Per run of the last build: its first symbol, its rank among the
    /// codes of its length, and the run of the same length before it.
    chain: Vec<RunLink>,
}

/// A run's place in [`Decoder`]'s per-length chains.
#[derive(Debug, Clone, Copy)]
struct RunLink {
    symbol: u32,
    rank: u32,
    prev: u32,
}

/// The end of a chain of runs.
const NO_RUN: u32 = u32::MAX;

/// Calls `f(rank, entry)` for every code of the runs chained back from
/// `last` — `len`-bit codes — with its rank among them.
#[inline(always)]
fn each_code(
    chain: &[RunLink],
    runs: &[u32],
    mut last: u32,
    len: u32,
    payload: &impl Fn(usize, u32) -> u32,
    mut f: impl FnMut(u32, u32),
) {
    while last != NO_RUN {
        let link = chain[last as usize];
        for k in 0..runs[last as usize] >> 4 {
            f(
                link.rank + k,
                payload((link.symbol + k) as usize, len) | len,
            );
        }
        last = link.prev;
    }
}

/// Every `PRIMARY_BITS`-bit value bit-reversed: a `len`-bit code sits at
/// `REVERSED[code << (PRIMARY_BITS - len)]`.
static REVERSED: [u16; 1 << PRIMARY_BITS] = {
    let mut table = [0u16; 1 << PRIMARY_BITS];
    let mut i = 0;
    while i < table.len() {
        table[i] = ((i as u32).reverse_bits() >> (32 - PRIMARY_BITS)) as u16;
        i += 1;
    }
    table
};

/// Where a `len`-bit canonical `code` sits in a table indexed by stream
/// bits: the stream delivers the code most-significant bit first, so
/// its first bit is bit 0 of the index.
#[inline]
fn reversed(code: u32, len: u32) -> usize {
    (code.reverse_bits() >> (32 - len)) as usize
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
        let runs: Vec<u32> = lens.iter().map(|&l| l | 1 << 4).collect();
        self.rebuild_runs(&runs, lens.len(), |sym, _| {
            (sym as u32) << ENTRY_PAYLOAD_SHIFT
        })
    }

    /// Rebuilds from `(length, run)` pairs, each packed `length | run <<
    /// 4` — `run` consecutive symbols, from symbol 0 on, with a code of
    /// `length` bits (0 for none), `symbols` in all — with a
    /// caller-chosen payload per symbol, so a token loop finds what it
    /// needs (a literal byte, a base value, the bits to skip) in the
    /// entry itself. `payload(sym, len)` must leave its low
    /// [`ENTRY_PAYLOAD_SHIFT`] bits clear.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the lengths violate the Kraft
    /// inequality.
    pub(crate) fn rebuild_runs(
        &mut self,
        runs: &[u32],
        symbols: usize,
        payload: impl Fn(usize, u32) -> u32,
    ) -> Result<()> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        let mut last = [NO_RUN; MAX_CODE_LEN as usize + 1];
        // Room for a run and a long code a symbol, so that no later,
        // fuller code allocates.
        self.chain.clear();
        self.chain.reserve(symbols);
        self.long.clear();
        self.long.reserve(symbols);
        let mut symbol = 0;
        for (i, &pair) in runs.iter().enumerate() {
            let (len, run) = ((pair & ENTRY_LEN_MASK) as usize, pair >> 4);
            self.chain.push(RunLink {
                symbol,
                rank: count[len],
                prev: last[len],
            });
            last[len] = i as u32;
            count[len] += run;
            symbol += run;
        }
        debug_assert_eq!(symbol as usize, symbols);
        count[0] = 0;
        // A single symbol of length 1 is allowed (the code need not be
        // complete); it must not over-subscribe the tree.
        let kraft: u64 = (1..=MAX_CODE_LEN)
            .map(|len| u64::from(count[len as usize]) << (MAX_CODE_LEN - len))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(Error::Corrupt(
                "code lengths violate Kraft inequality".into(),
            ));
        }

        self.max_len = (1..=MAX_CODE_LEN)
            .rev()
            .find(|&len| count[len as usize] > 0)
            .unwrap_or(0);
        self.bits = self.max_len.clamp(1, PRIMARY_BITS);
        let (mut code, mut long) = (0u32, 0u32);
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + count[len - 1]) << 1;
            self.first_code[len] = code;
            self.offset[len] = long;
            if len as u32 > self.bits {
                long += count[len];
            }
        }
        self.count = count;

        // The table starts two entries wide (one bit) and empty; every
        // step to the next length appends a copy of the table to
        // itself, which repeats each code at every value of the new
        // top bit and leaves the slots no code reaches at 0. (Room for
        // the widest table, so that no later, fuller code allocates.)
        let Self {
            table,
            chain,
            first_code,
            ..
        } = self;
        table.clear();
        table.reserve(1 << PRIMARY_BITS);
        table.extend_from_slice(&[0, 0]);
        for len in 1..=self.bits {
            let first = first_code[len as usize];
            each_code(
                chain,
                runs,
                last[len as usize],
                len,
                &payload,
                |rank, entry| {
                    let code = first + rank;
                    table[usize::from(REVERSED[(code << (PRIMARY_BITS - len)) as usize])] = entry;
                },
            );
            if len < self.bits {
                table.extend_from_within(..);
            }
        }
        // Longer codes go to `long` in canonical order and mark the
        // slot of their first `bits` bits.
        self.long.resize(long as usize, 0);
        let mask = (1usize << self.bits) - 1;
        for len in self.bits + 1..=self.max_len {
            let (at, first) = (self.offset[len as usize], first_code[len as usize]);
            each_code(
                chain,
                runs,
                last[len as usize],
                len,
                &payload,
                |rank, entry| {
                    self.long[(at + rank) as usize] = entry;
                    table[reversed(first + rank, len) & mask] = ENTRY_LONG;
                },
            );
        }
        Ok(())
    }

    /// The lookup table, a power of two long and indexed by the next
    /// stream bits (first bit in bit 0). An entry is `payload | code
    /// length`; 0 marks bits no code starts with, and the one other
    /// entry without a payload stands for a code longer than the table
    /// is wide, which [`Self::lookup`] resolves.
    #[inline]
    pub(crate) fn table(&self) -> &[u32] {
        &self.table
    }

    /// The entry of the code that `bits` — the next stream bits,
    /// LSB-first, at least [`MAX_CODE_LEN`] of them or zero-padded —
    /// starts with; its length field is 0 when no code matches.
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> u32 {
        // A power-of-two length makes the mask an in-range index; a
        // never-built decoder has no table and matches nothing.
        let slot = bits as usize & self.table.len().wrapping_sub(1);
        match self.table.get(slot) {
            Some(&entry) if entry & ENTRY_LONG == 0 => entry,
            Some(_) => self.lookup_long(bits),
            None => 0,
        }
    }

    /// First-code arithmetic for codes wider than the table. The stream
    /// delivers a code most-significant bit first, so the peeked bits
    /// reversed are the code, left-aligned in [`MAX_CODE_LEN`] bits.
    #[cold]
    fn lookup_long(&self, bits: u64) -> u32 {
        let aligned = u32::from((bits as u16).reverse_bits() >> (16 - MAX_CODE_LEN));
        for len in self.bits + 1..=self.max_len {
            let code = aligned >> (MAX_CODE_LEN - len);
            let rel = code.wrapping_sub(self.first_code[len as usize]);
            if rel < self.count[len as usize] {
                return self.long[(self.offset[len as usize] + rel) as usize];
            }
        }
        0
    }

    /// Decodes one code from `r` and returns its entry, every read
    /// checked against the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the bits do not form a valid code or
    /// the stream ends early.
    #[inline]
    pub(crate) fn decode_entry(&self, r: &mut BitReader<'_>) -> Result<u32> {
        // peek_bits pads past end-of-stream with zeros; consume() still
        // errors if the matched length exceeds the real stream.
        let entry = self.lookup(u64::from(r.peek_bits(MAX_CODE_LEN)));
        if entry & ENTRY_LEN_MASK == 0 {
            return Err(Error::Corrupt("invalid Huffman code".into()));
        }
        r.consume(entry & ENTRY_LEN_MASK)?;
        Ok(entry)
    }

    /// Decodes one symbol from `r` (a decoder built by
    /// [`Self::rebuild`], whose payload is the symbol).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the bits do not form a valid code or
    /// the stream ends early.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        Ok((self.decode_entry(r)? >> ENTRY_PAYLOAD_SHIFT) as u16)
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

    /// The branchy two-queue merge [`huffman_lengths`] must agree with:
    /// a branch per pick (a leaf wins ties), parent links for every
    /// node, and one descending pass that turns them into depths.
    fn reference_huffman_lengths(max_len: u32, scratch: &HuffScratch, lens: &mut [u32]) -> bool {
        let (active_syms, leaves) = (&scratch.active_syms, &scratch.leaves);
        let n = leaves.len();
        let mut tree: Vec<(u64, u32)> = leaves
            .iter()
            .map(|&packed| (unpack_leaf(packed).0, 0))
            .collect();
        let (mut leaf, mut internal) = (0usize, n);
        for next in n..2 * n - 1 {
            let mut weight = 0u64;
            for _ in 0..2 {
                let take_leaf = leaf < n && (internal == next || tree[leaf].0 <= tree[internal].0);
                let child = if take_leaf { &mut leaf } else { &mut internal };
                weight += tree[*child].0;
                tree[*child].1 = next as u32;
                *child += 1;
            }
            tree.push((weight, 0));
        }
        let mut deepest = 0;
        for i in (0..2 * n - 2).rev() {
            let parent = tree[i].1 as usize;
            tree[i].1 = tree[parent].1 + 1;
            deepest = deepest.max(tree[i].1);
        }
        if deepest > max_len {
            return false;
        }
        for (&packed, &(_, depth)) in leaves.iter().zip(tree.iter()) {
            lens[active_syms[unpack_leaf(packed).1 as usize] as usize] = depth;
        }
        true
    }

    /// The canonical codes [`Encoder`] must build: per symbol, the next
    /// code of its length, reversed on its own — `(reversed code,
    /// length)`, `(0, 0)` for a symbol without a code.
    fn reference_codes(lens: &[u32]) -> Vec<(u32, u32)> {
        let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lens.iter().filter(|&&l| l > 0) {
            bl_count[l as usize] += 1;
        }
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            code = (code + bl_count[(len - 1) as usize]) << 1;
            next_code[len as usize] = code;
        }
        lens.iter()
            .map(|&l| {
                if l == 0 {
                    (0, 0)
                } else {
                    let c = next_code[l as usize];
                    next_code[l as usize] += 1;
                    (c.reverse_bits() >> (32 - l), l)
                }
            })
            .collect()
    }

    /// Weight vectors over a 265-symbol alphabet with exactly `active` of
    /// them nonzero, at random places: small weights full of ties, wide
    /// ones, or Fibonacci weights, which make a plain Huffman tree deeper
    /// than 15 bits once 17 or more symbols carry them.
    fn arb_alphabet(active: usize) -> impl Strategy<Value = Vec<u64>> {
        let fib = || {
            let mut f = vec![1u64, 1];
            while f.len() < 265 {
                f.push(f[f.len() - 1].saturating_add(f[f.len() - 2]).min(1 << 40));
            }
            f
        };
        (
            prop_oneof![
                prop::collection::vec(1u64..4, active),
                prop::collection::vec(1u64..5000, active),
                Just(fib()[..active].to_vec()),
            ],
            prop::collection::vec(any::<prop::sample::Index>(), 265),
        )
            .prop_map(move |(weights, order)| {
                // A random placement: sort the symbols by a drawn key.
                let mut symbols: Vec<usize> = (0..265).collect();
                symbols.sort_by_key(|&s| order[s].index(1 << 20));
                let mut freqs = vec![0u64; 265];
                for (&sym, &w) in symbols.iter().zip(&weights) {
                    freqs[sym] = w;
                }
                freqs
            })
    }

    fn arb_sized_alphabet() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            arb_alphabet(1),
            arb_alphabet(2),
            arb_alphabet(17),
            arb_alphabet(257),
            arb_alphabet(265),
        ]
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

        /// The radix sort leaves the packed leaf words in the order
        /// `sort_unstable` puts them in: by weight, ties in symbol order,
        /// over weights up to 2^47 and the widest a leaf word holds (eight
        /// passes) and long runs of ties, through fresh buffers and
        /// buffers another alphabet used.
        #[test]
        fn sorted_leaves_are_the_packed_words_in_order(
            alphabets in prop::collection::vec(
                prop_oneof![
                    prop::collection::vec(0u64..4, 0..300),
                    prop::collection::vec(
                        prop_oneof![
                            Just(0u64),
                            0u64..64,
                            0u64..=1 << 47,
                            Just(1 << 47),
                            Just((1 << (64 - LEAF_BITS)) - 1),
                        ],
                        0..300
                    ),
                    arb_freqs(),
                ],
                1..4
            )
        ) {
            let mut reused = HuffScratch::new();
            for freqs in &alphabets {
                let active: Vec<u32> =
                    (0u32..).zip(freqs).filter(|&(_, &w)| w > 0).map(|(s, _)| s).collect();
                let mut want: Vec<u64> = active
                    .iter()
                    .zip(0u64..)
                    .map(|(&s, leaf)| freqs[s as usize] << LEAF_BITS | leaf)
                    .collect();
                want.sort_unstable();
                for scratch in [&mut HuffScratch::new(), &mut reused] {
                    let mut lens = Vec::new();
                    let n = sort_leaves(freqs, MAX_CODE_LEN, scratch, &mut lens).unwrap();
                    prop_assert_eq!(n, active.len());
                    prop_assert_eq!(&scratch.active_syms, &active);
                    if n >= 2 {
                        prop_assert_eq!(&scratch.leaves, &want);
                    }
                }
            }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The select-driven merge and the level walk give every leaf the
        /// depth the branchy merge does, and report a tree deeper than
        /// the limit the same way, leaving `lens` as it was.
        #[test]
        fn huffman_lengths_equal_the_branchy_merge(
            freqs in prop_oneof![arb_sized_alphabet(), arb_freqs()],
            max_len in prop_oneof![Just(MAX_CODE_LEN), 1u32..=MAX_CODE_LEN],
        ) {
            let mut scratch = HuffScratch::new();
            let mut lens = Vec::new();
            if sort_leaves(&freqs, max_len, &mut scratch, &mut lens).map_or(true, |n| n < 2) {
                return Ok(());
            }
            let mut want = lens.clone();
            let fits = reference_huffman_lengths(max_len, &scratch, &mut want);
            prop_assert_eq!(huffman_lengths(max_len, &mut scratch, &mut lens), fits);
            prop_assert_eq!(lens, want);
        }

        /// The encoder's codes — built over the symbols that have one,
        /// by a reversed increment per length — are the canonical codes
        /// reversed one symbol at a time, through `rebuild` and through
        /// `rebuild_active`, on fresh and on reused encoders.
        #[test]
        fn codes_equal_the_symbol_by_symbol_reversal(
            alphabets in prop::collection::vec(
                (prop_oneof![arb_sized_alphabet(), arb_freqs()], 1u32..=MAX_CODE_LEN),
                1..4
            )
        ) {
            let (mut reused, mut reused_active) = (Encoder::default(), Encoder::default());
            for (freqs, max_len) in &alphabets {
                let Ok(lens) = code_lengths(freqs, *max_len) else { continue };
                let want = reference_codes(&lens);
                let active: Vec<u32> =
                    (0u32..).zip(&lens).filter(|&(_, &l)| l > 0).map(|(s, _)| s).collect();
                reused.rebuild(&lens).unwrap();
                reused_active.rebuild_active(&lens, &active);
                for enc in [&Encoder::from_lengths(&lens).unwrap(), &reused, &reused_active] {
                    let got: Vec<(u32, u32)> = (0..lens.len()).map(|s| enc.code(s)).collect();
                    prop_assert_eq!(&got, &want);
                }
            }
        }
    }

    #[test]
    fn the_fitted_alphabets_of_every_size_bind_the_limit_where_they_should() {
        // The sizes the merge and encoder properties draw, at their
        // Fibonacci extreme: from 17 active symbols on, a plain tree is
        // deeper than 15 bits and package-merge runs; below, it is not.
        let mut fib = vec![1u64, 1];
        while fib.len() < 265 {
            fib.push((fib[fib.len() - 1] + fib[fib.len() - 2]).min(1 << 40));
        }
        for active in [1usize, 2, 17, 257, 265] {
            let mut freqs = vec![0u64; 265];
            freqs[..active].copy_from_slice(&fib[..active]);
            let mut scratch = HuffScratch::new();
            let mut lens = Vec::new();
            let n = sort_leaves(&freqs, MAX_CODE_LEN, &mut scratch, &mut lens).unwrap();
            assert_eq!(n, active);
            if n >= 2 {
                let fits = huffman_lengths(MAX_CODE_LEN, &mut scratch, &mut lens);
                assert_eq!(fits, active < 17, "{active} active symbols");
            }
            let lens = code_lengths(&freqs, MAX_CODE_LEN).unwrap();
            assert_eq!(lens.iter().filter(|&&l| l > 0).count(), active);
            assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
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
    fn codes_longer_than_the_table_round_trip() {
        // Fibonacci weights make a code as deep as the limit allows:
        // symbols on both sides of the table width, and every length
        // in between, in one message.
        let mut freqs = vec![1u64, 1];
        for i in 2..40 {
            freqs.push(freqs[i - 1] + freqs[i - 2]);
        }
        let lens = code_lengths(&freqs, MAX_CODE_LEN).unwrap();
        assert_eq!(lens.iter().max(), Some(&MAX_CODE_LEN));
        assert!(lens.iter().any(|&l| l <= PRIMARY_BITS));
        let msg: Vec<u16> = (0..40).chain((0..40).rev()).collect();
        round_trip(&freqs, &msg);
    }

    #[test]
    fn bits_that_are_no_code_are_rejected_at_every_width() {
        // An incomplete code: `0`, `10`, and `110` with ten zeros after
        // it. Everything else is no code, whether the table or the
        // first-code walk has to say so.
        let lens = [1, 2, 0, 0, 0, 13];
        let dec = Decoder::from_lengths(&lens).unwrap();
        let decode = |bits: u32, n: u32| {
            let mut w = BitWriter::new();
            w.write_code_msb(bits, n);
            dec.decode(&mut BitReader::new(&w.finish()))
        };
        assert_eq!(decode(0b0, 1).unwrap(), 0);
        assert_eq!(decode(0b10, 2).unwrap(), 1);
        assert_eq!(decode(0b1_1000_0000_0000, 13).unwrap(), 5);
        assert!(decode(0b111, 3).is_err());
        assert!(decode(0b1_1000_0000_0001, 13).is_err());
        assert!(decode(0b1_1000_0010_0000, 13).is_err());
        assert!(decode(0b111_1111_1111_1111, 15).is_err());
        // The long code cut short is the end of the stream, not a code.
        assert!(dec.decode(&mut BitReader::new(&[0b011])).is_err());
        // A never-built decoder has no codes at all.
        assert!(Decoder::default()
            .decode(&mut BitReader::new(&[0xff; 4]))
            .is_err());
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
    fn weights_too_wide_for_a_leaf_word_rejected() {
        let widest = (1u64 << (64 - LEAF_BITS)) - 1;
        assert!(code_lengths(&[widest, 1], MAX_CODE_LEN).is_ok());
        assert!(code_lengths(&[widest + 1, 1], MAX_CODE_LEN).is_err());
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
