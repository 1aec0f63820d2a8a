//! LZ77 match finding with hash chains and one-step lazy matching.
//!
//! Produces a token stream (literals and back-references) consumed by the
//! [`crate::xdeflate`] entropy stage. The window defaults to 32 KiB like
//! DEFLATE; page-sized SFM inputs (≤ 4 KiB) always fit entirely in the
//! window.
//!
//! The hot path is allocation-free: [`MatchFinder::tokenize_into`] reuses
//! the hash-chain tables in a [`Lz77Scratch`] across pages and streams
//! tokens into a [`TokenSink`] instead of materializing a `Vec<Token>`.
//!
//! The tables hold positions at the narrowest width the input allows:
//! `u16` for inputs up to 65 535 bytes — every page — which makes the
//! head table 16 KiB and a page's chain links 8 KiB, so table, links and
//! page sit in L1 together and clearing the head table per call is a
//! 16 KiB fill. Longer inputs run the same tokenizer body over `u32`
//! tables.
//!
//! The chain walk branches on no candidate's bytes. The 16 bytes at the
//! current position are loaded once per search; each candidate is one
//! 16-byte XOR against them, whose trailing zero bytes, clamped to the
//! bytes left, are its match length, and the best length and distance
//! move by select. The walk leaves on one unsigned compare of the
//! distance, which the chain's end (`NONE`, above every position) fails
//! too, or on a match long enough to keep; only a candidate that agrees
//! on all 16 bytes compares further. Near the end of the input the loads
//! read zeros past it, so the last 15 bytes take the same loop.
//!
//! The search starts where the first repeated 4-byte word does. A scan
//! ahead of it proves each word new with a 2^16-bit filter (walking the
//! chain only when the filter's bit is already set), inserts every
//! position it passes as the search would, and hands those bytes to the
//! sink as literals in one call: no match can start before the first
//! repeat. A compressible page repeats a word within its first hundred
//! bytes; a page in which no word repeats — random bytes — is never
//! searched at all.
//!
//! The lazy step follows zlib level 6 (`max_lazy` 16, `good_length` 8;
//! `good_enough` is its `nice_length`): a match of 16 bytes or more is
//! taken without looking one byte further, and after one of 8 or more
//! that look walks a quarter of the chain. On json and struct pages
//! most chain steps had been lazy looks after matches already long
//! enough to keep.

/// Smallest back-reference the tokenizer will emit.
pub const MIN_MATCH: usize = 4;
/// Largest back-reference length.
pub const MAX_MATCH: usize = 258;
/// Largest back-reference distance (32 KiB window).
const MAX_DIST: usize = 32 * 1024;
/// zlib level 6's `max_lazy`: a match at least this long is taken
/// without searching one byte further.
const MAX_LAZY: usize = 16;
/// zlib level 6's `good_length`: after a match at least this long, the
/// lazy search walks a quarter of the chain.
const GOOD_LENGTH: usize = 8;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u32,
        /// Distance in `1..=MAX_DIST`.
        dist: u32,
    },
}

/// Receives the token stream produced by [`MatchFinder::tokenize_into`].
pub trait TokenSink {
    /// One literal byte.
    fn literal(&mut self, byte: u8);
    /// A back-reference of `len` bytes at distance `dist`.
    fn emit_match(&mut self, len: u32, dist: u32);
    /// Every byte of `bytes` as a literal, in order.
    fn literals(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.literal(byte);
        }
    }
}

impl TokenSink for Vec<Token> {
    fn literal(&mut self, byte: u8) {
        self.push(Token::Literal(byte));
    }

    fn emit_match(&mut self, len: u32, dist: u32) {
        self.push(Token::Match { len, dist });
    }
}

/// A position as stored in the hash-chain tables. `NONE` ends a chain;
/// it is the one value of the type that is not a valid position.
trait Pos: Copy + PartialEq {
    const NONE: Self;
    fn new(pos: usize) -> Self;
    fn get(self) -> usize;
}

impl Pos for u16 {
    const NONE: Self = u16::MAX;
    #[inline]
    fn new(pos: usize) -> Self {
        pos as u16
    }
    #[inline]
    fn get(self) -> usize {
        usize::from(self)
    }
}

impl Pos for u32 {
    const NONE: Self = u32::MAX;
    #[inline]
    fn new(pos: usize) -> Self {
        pos as u32
    }
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
}

/// Hash chains at one position width: `head[h]` is the most recent
/// position whose 4-byte prefix hashes to `h`, `prev[i]` the position
/// before `i` on the same chain.
#[derive(Debug, Clone, Default)]
struct Tables<P> {
    head: Vec<P>,
    prev: Vec<P>,
}

impl<P: Pos> Tables<P> {
    /// Empties every chain and sizes the links for an `n`-byte input.
    /// `prev` is not cleared: `prev[i]` is written when position `i` is
    /// inserted, before any chain walk of this input can reach it.
    fn begin(&mut self, n: usize) -> (&mut [P; HASH_SIZE], &mut [P]) {
        assert!(n <= P::NONE.get(), "input too large for the position width");
        self.head.clear();
        self.head.resize(HASH_SIZE, P::NONE);
        if self.prev.len() < n {
            self.prev.resize(n, P::NONE);
        }
        let head = self.head.as_mut_slice().try_into();
        (
            head.expect("head holds HASH_SIZE entries"),
            &mut self.prev[..n],
        )
    }
}

/// Reusable hash-chain tables for the tokenizer, one set per position
/// width, and the bit filter of its first-copy scan; each is sized on
/// first use and kept.
#[derive(Debug, Clone, Default)]
pub struct Lz77Scratch {
    narrow: Tables<u16>,
    wide: Tables<u32>,
    seen: Vec<u64>,
}

impl Lz77Scratch {
    /// Creates empty tables (first use sizes them).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The work of one tokenize: its loops' trip counts, from
/// [`MatchFinder::search_work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Chain walks, the lazy ones included.
    pub searches: u32,
    /// Walks one byte past a match, to see whether a longer one starts
    /// there.
    pub lazy_searches: u32,
    /// Candidates compared, over every walk.
    pub chain_links: u32,
    /// Positions inside matches put on a chain: the trips of the
    /// per-match insert loop (the first-copy scan's inserts and each
    /// search's own are not counted).
    pub inserts: u32,
}

/// A sink that keeps nothing, for a tokenize run only for its counts.
struct Discard;

impl TokenSink for Discard {
    fn literal(&mut self, _: u8) {}
    fn emit_match(&mut self, _: u32, _: u32) {}
    fn literals(&mut self, _: &[u8]) {}
}

/// Links [`first_copies`] walks before it leaves a word to the search.
const SCAN_CHAIN: usize = 128;
/// log2 of the bits in [`first_copies`]' filter (8 KiB).
const SEEN_BITS: u32 = 16;

/// The tokenizer's first phase, for an input of at least [`MIN_MATCH`]
/// bytes: inserts positions `0..k` into the chains, exactly as the
/// search would, and returns `k`, the first position whose 4-byte word
/// is not provably its own first copy (or the number of positions, when
/// there is none). No word before `k` has an earlier copy, so any
/// [`MatchFinder`] emits those bytes as literals: a match starts where
/// an earlier copy of its word is. A compressible input repeats a word
/// within its first records; an incompressible one is scanned to the
/// end, and the search never runs.
///
/// Each word is looked up in a 2^16-bit filter of the words before it
/// (top bits of its hash). A clear bit proves it new; only a set bit —
/// about one position in thirty on a random page — walks the chain for
/// an exact answer, and a walk of more than [`SCAN_CHAIN`] links ends
/// the scan.
fn first_copies<P: Pos>(
    data: &[u8],
    head: &mut [P; HASH_SIZE],
    prev: &mut [P],
    seen: &mut Vec<u64>,
) -> usize {
    seen.clear();
    seen.resize(1 << (SEEN_BITS - 6), 0);
    let seen: &mut [u64; 1 << (SEEN_BITS - 6)] = seen
        .as_mut_slice()
        .try_into()
        .expect("the filter was just sized");
    let positions = data.len() + 1 - MIN_MATCH;
    let prev = &mut prev[..positions];
    for (i, window) in data.windows(MIN_MATCH).enumerate() {
        let word = u32::from_le_bytes(window.try_into().expect("four bytes"));
        let mixed = mix(word);
        let h = (mixed >> (32 - HASH_BITS)) as usize;
        let bit = (mixed >> (32 - SEEN_BITS)) as usize;
        let slot = &mut seen[bit / 64];
        if *slot & 1 << (bit % 64) != 0 {
            let mut cand = head[h];
            for _ in 0..SCAN_CHAIN {
                if cand == P::NONE || word_at(data, cand.get()) == word {
                    break;
                }
                cand = prev[cand.get()];
            }
            if cand != P::NONE {
                return i;
            }
        }
        *slot |= 1 << (bit % 64);
        insert(head, prev, h, i);
    }
    positions
}

/// The bytes of `data` [`first_copies`] hands over as literals — all of
/// them when no word repeats, and the search never runs.
#[cfg(test)]
pub(crate) fn literal_prefix(data: &[u8]) -> usize {
    if data.len() < MIN_MATCH {
        return data.len();
    }
    let mut tables = Tables::<u32>::default();
    let (head, prev) = tables.begin(data.len());
    match first_copies(data, head, prev, &mut Vec::new()) {
        k if k + MIN_MATCH > data.len() => data.len(),
        k => k,
    }
}

/// The four bytes at `data[i..]` as one word.
#[inline(always)]
fn word_at(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + MIN_MATCH].try_into().expect("four bytes"))
}

/// The multiplicative hash of a word, all 32 bits: its top
/// [`HASH_BITS`] pick the chain.
#[inline(always)]
fn mix(word: u32) -> u32 {
    word.wrapping_mul(0x9E37_79B1)
}

#[inline(always)]
fn hash(word: u32) -> usize {
    (mix(word) >> (32 - HASH_BITS)) as usize
}

/// Puts position `i`, whose prefix hashes to `h`, at the front of its
/// chain.
#[inline(always)]
fn insert<P: Pos>(head: &mut [P; HASH_SIZE], prev: &mut [P], h: usize, i: usize) {
    prev[i] = head[h];
    head[h] = P::new(i);
}

/// The sixteen bytes at `data[at..]` as one word, zero past the end of
/// `data`: a load near the end reads what a zero-padded copy of the
/// input would hold, and the caller clamps what it compares to its
/// limit.
#[inline(always)]
fn load16(data: &[u8], at: usize) -> u128 {
    #[cold]
    fn tail(data: &[u8], at: usize) -> u128 {
        let mut word = [0u8; 16];
        word[..data.len() - at].copy_from_slice(&data[at..]);
        u128::from_le_bytes(word)
    }
    match data.get(at..at + 16) {
        Some(bytes) => u128::from_le_bytes(bytes.try_into().expect("sixteen bytes")),
        None => tail(data, at),
    }
}

/// Longest common prefix of `data[cand..]` and `data[i..]`, capped at
/// `limit`, compared a 128-bit word at a time (64/8-bit tails). Caller
/// guarantees `cand < i` and `i + limit <= data.len()`.
#[inline]
fn match_len(data: &[u8], cand: usize, i: usize, limit: usize) -> usize {
    let mut l = 0usize;
    while l + 16 <= limit {
        let a = u128::from_le_bytes(data[cand + l..cand + l + 16].try_into().unwrap());
        let b = u128::from_le_bytes(data[i + l..i + l + 16].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 16;
    }
    while l + 8 <= limit {
        let a = u64::from_le_bytes(data[cand + l..cand + l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().unwrap());
        let x = a ^ b;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && data[cand + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Configurable hash-chain match finder.
///
/// # Examples
///
/// ```
/// use xfm_compress::lz77::{MatchFinder, Token};
///
/// let mf = MatchFinder::default();
/// let tokens = mf.tokenize(b"abcdabcdabcd");
/// assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchFinder {
    /// Maximum hash-chain positions examined per match attempt.
    pub max_chain: usize,
    /// Stop searching once a match of this length is found.
    pub good_enough: usize,
    /// Enable one-step lazy matching.
    pub lazy: bool,
}

impl MatchFinder {
    /// A fast configuration (short chains, no lazy matching).
    #[must_use]
    pub const fn fast() -> Self {
        Self {
            max_chain: 8,
            good_enough: 32,
            lazy: false,
        }
    }

    /// A thorough configuration (long chains, lazy matching).
    #[must_use]
    pub const fn thorough() -> Self {
        Self {
            max_chain: 128,
            good_enough: 128,
            lazy: true,
        }
    }

    /// Tokenizes `data` into literals and back-references. Decoding the
    /// token stream always reproduces `data` exactly.
    ///
    /// Thin wrapper over [`Self::tokenize_into`] that allocates fresh
    /// tables and collects into a `Vec<Token>`.
    #[must_use]
    pub fn tokenize(&self, data: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::with_capacity(data.len() / 2);
        self.tokenize_into(data, &mut Lz77Scratch::new(), &mut tokens);
        tokens
    }

    /// Walks at most `chain` links from `cand` for the longest match for
    /// position `i`. Returns `(len, dist, links)`; a `len` below
    /// [`MIN_MATCH`] means no match, and `links`, the candidates
    /// compared, is counted only when `COUNT` is set. The caller
    /// guarantees `i + MIN_MATCH <= data.len()`.
    ///
    /// Every candidate costs the same: one 16-byte XOR against the bytes
    /// at `i` (loaded once), whose trailing zeros are the common prefix,
    /// and the best match moves by select. A candidate that agrees on
    /// fewer than [`MIN_MATCH`] bytes cannot beat the starting best, so
    /// no prefix test comes first. The loop leaves on one unsigned
    /// compare of the distance — which also ends the chain, since
    /// `NONE` lies above every position — or on a match long enough to
    /// keep; only a candidate that agrees on all 16 bytes compares
    /// further.
    #[inline(always)]
    fn longest_match<P: Pos, const COUNT: bool>(
        &self,
        data: &[u8],
        prev: &[P],
        i: usize,
        mut cand: P,
        chain: usize,
    ) -> (usize, usize, u32) {
        let limit = (data.len() - i).min(MAX_MATCH);
        // A match this long ends the walk: `good_enough`, but never below
        // a length that can beat the starting best, and never above
        // `limit`, which no candidate can pass.
        let enough = self.good_enough.max(MIN_MATCH).min(limit);
        let here = load16(data, i);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut links = 0;
        for _ in 0..chain {
            let c = cand.get();
            let dist = i.wrapping_sub(c);
            if dist.wrapping_sub(1) >= MAX_DIST {
                break;
            }
            if COUNT {
                links += 1;
            }
            let mut l = ((load16(data, c) ^ here).trailing_zeros() / 8) as usize;
            if l == 16 {
                l += match_len(data, c + 16, i + 16, limit.saturating_sub(16));
            }
            let l = l.min(limit);
            let better = l > best_len;
            best_len = if better { l } else { best_len };
            best_dist = if better { dist } else { best_dist };
            if l >= enough {
                break;
            }
            cand = prev[c];
        }
        (best_len, best_dist, links)
    }

    /// Tokenizes `data`, streaming tokens into `sink` and reusing the
    /// hash-chain tables in `scratch`. Emits the exact same token
    /// sequence as [`Self::tokenize`] without allocating.
    pub fn tokenize_into<S: TokenSink>(
        &self,
        data: &[u8],
        scratch: &mut Lz77Scratch,
        sink: &mut S,
    ) {
        self.run_at_width::<S, false>(data, scratch, sink);
    }

    /// What tokenizing `data` takes: the trip counts of the search's
    /// loops, from a run of the same tokenizer that counts them (the
    /// tokens are dropped). [`Self::tokenize_into`] runs it with the
    /// counters compiled out: a counter in the search loop, however
    /// cheap its adds, moves the loop's code enough to cost compress
    /// a few percent.
    pub fn search_work(&self, data: &[u8], scratch: &mut Lz77Scratch) -> SearchWork {
        self.run_at_width::<_, true>(data, scratch, &mut Discard)
    }

    fn run_at_width<S: TokenSink, const COUNT: bool>(
        &self,
        data: &[u8],
        scratch: &mut Lz77Scratch,
        sink: &mut S,
    ) -> SearchWork {
        let seen = &mut scratch.seen;
        if data.len() <= usize::from(u16::MAX) {
            self.run::<_, _, COUNT>(data, &mut scratch.narrow, seen, sink)
        } else {
            self.run::<_, _, COUNT>(data, &mut scratch.wide, seen, sink)
        }
    }

    /// The tokenizer, generic over the width positions are stored at,
    /// and over whether it counts its work (in locals, returned at the
    /// end; all zero when `COUNT` is not set).
    fn run<P: Pos, S: TokenSink, const COUNT: bool>(
        &self,
        data: &[u8],
        tables: &mut Tables<P>,
        seen: &mut Vec<u64>,
        sink: &mut S,
    ) -> SearchWork {
        let n = data.len();
        let mut i = 0usize;
        let mut work = SearchWork::default();
        if n >= MIN_MATCH {
            let (head, prev) = tables.begin(n);
            // Last position with a full 4-byte prefix to hash.
            let last = n - MIN_MATCH;
            i = first_copies(data, head, prev, seen);
            sink.literals(&data[..i]);
            while i <= last {
                let word = word_at(data, i);
                let h = hash(word);
                let (mut len, mut dist, links) =
                    self.longest_match::<P, COUNT>(data, prev, i, head[h], self.max_chain);
                if COUNT {
                    work.searches += 1;
                    work.chain_links += links;
                }
                insert(head, prev, h, i);
                if len < MIN_MATCH {
                    sink.literal(data[i]);
                    i += 1;
                    continue;
                }
                // Lazy: if the match one byte later is longer, emit this
                // byte as a literal and take that one instead.
                if self.lazy && i < last && len < MAX_LAZY {
                    let chain = if len >= GOOD_LENGTH {
                        self.max_chain / 4
                    } else {
                        self.max_chain
                    };
                    let next_head = head[hash(word_at(data, i + 1))];
                    let (next_len, next_dist, links) =
                        self.longest_match::<P, COUNT>(data, prev, i + 1, next_head, chain);
                    if COUNT {
                        work.searches += 1;
                        work.lazy_searches += 1;
                        work.chain_links += links;
                    }
                    if next_len > len {
                        sink.literal(data[i]);
                        i += 1;
                        (len, dist) = (next_len, next_dist);
                    }
                }
                sink.emit_match(len as u32, dist as u32);
                // Insert the positions covered by the match.
                let end = i + len;
                let covered = i + 1..end.min(last + 1);
                if COUNT {
                    work.inserts += covered.len() as u32;
                }
                for j in covered {
                    insert(head, prev, hash(word_at(data, j)), j);
                }
                i = end;
            }
        }
        // Tail too short to match or hash: literals.
        sink.literals(&data[i..]);
        work
    }
}

/// log2 of the hash-head table size: 8 K chains, 16 KiB at the `u16`
/// width every page uses.
const HASH_BITS: u32 = 13;
const HASH_SIZE: usize = 1 << HASH_BITS;

impl Default for MatchFinder {
    /// Defaults to the thorough configuration (xdeflate's profile).
    fn default() -> Self {
        Self::thorough()
    }
}

/// Bytes [`copy_match_at`] may write past the end of a match.
pub(crate) const COPY_SLACK: usize = 32;

/// The decoder's match copy, written by index: copies the
/// back-reference to `out[at..at + len]` from `dist` bytes before it.
///
/// A copy goes in whole blocks: 16-byte blocks (one vector load and
/// store each) when a source block ends before its destination starts,
/// and from `dist >= 8` four 8-byte chunks, [`COPY_SLACK`] bytes
/// whatever the length, then more. A match of 16 bytes or fewer, which
/// is most of them, is then one block and no branch on its length; the
/// caller keeps `COPY_SLACK` writable bytes after the match for the
/// rounding. (Blocks wider than 16 bytes cost more on page data: a
/// short match pays for a wide block, and its load more often straddles
/// the stores of the matches just before it.)
///
/// # Panics
///
/// Panics if `dist` is 0 or greater than `at`, or `out` is too short.
#[inline(always)]
pub(crate) fn copy_match_at(out: &mut [u8], at: usize, dist: usize, len: usize) {
    const BLOCK: usize = 16;
    let from = at - dist;
    if dist >= BLOCK {
        let mut done = 0;
        loop {
            let (before, after) = out.split_at_mut(at + done);
            after[..BLOCK].copy_from_slice(&before[from + done..from + done + BLOCK]);
            done += BLOCK;
            if done >= len {
                break;
            }
        }
    } else if dist >= 8 {
        // Two loops on purpose: the first has a constant trip count and
        // unrolls to four loads and stores; one loop for both makes the
        // compiler set a vector loop up for every match.
        let mut done = 0;
        while done < COPY_SLACK {
            out.copy_within(from + done..from + done + 8, at + done);
            done += 8;
        }
        while done < len {
            out.copy_within(from + done..from + done + 8, at + done);
            done += 8;
        }
    } else if dist == 1 {
        let b = out[from];
        out[at..at + len].fill(b);
    } else {
        for i in 0..len {
            out[at + i] = out[from + i];
        }
    }
}

/// Expands a token stream back into bytes, a byte at a time (the
/// reference decoder the tokenizer's tests round-trip through).
///
/// # Panics
///
/// Panics if a match reaches back past the start of the output.
#[must_use]
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for k in start..start + len as usize {
                    out.push(out[k]);
                }
            }
        }
    }
    out
}

/// The tokenizer [`MatchFinder::tokenize_into`] is checked against: the
/// same search written the plain way — full-width positions in freshly
/// allocated tables, byte-at-a-time compares, the chain walk a function
/// of its own — with no regard for speed. The production tokenizer must
/// emit exactly this token sequence.
#[cfg(test)]
pub(crate) mod reference {
    use super::{
        MatchFinder, Token, GOOD_LENGTH, HASH_BITS, HASH_SIZE, MAX_DIST, MAX_LAZY, MAX_MATCH,
        MIN_MATCH,
    };

    const NO_POS: usize = usize::MAX;

    struct Chains {
        head: Vec<usize>,
        prev: Vec<usize>,
    }

    fn hash(data: &[u8], i: usize) -> usize {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }

    impl Chains {
        fn insert(&mut self, data: &[u8], i: usize) {
            if i + MIN_MATCH <= data.len() {
                let h = hash(data, i);
                self.prev[i] = self.head[h];
                self.head[h] = i;
            }
        }
    }

    /// The longest match for position `i` among the first `max_chain`
    /// positions on its chain.
    fn find(
        mf: &MatchFinder,
        data: &[u8],
        chains: &Chains,
        i: usize,
        max_chain: usize,
    ) -> Option<(usize, usize)> {
        let n = data.len();
        if i + MIN_MATCH > n {
            return None;
        }
        let limit = (n - i).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = max_chain;
        let mut cand = chains.head[hash(data, i)];
        while cand != NO_POS && chain > 0 {
            let dist = i - cand;
            if dist > MAX_DIST {
                break;
            }
            let l = (0..limit)
                .take_while(|&k| data[cand + k] == data[i + k])
                .count();
            if l > best_len {
                best_len = l;
                best_dist = dist;
                if l >= mf.good_enough || l == limit {
                    break;
                }
            }
            cand = chains.prev[cand];
            chain -= 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    }

    pub(crate) fn tokenize(mf: &MatchFinder, data: &[u8]) -> Vec<Token> {
        let n = data.len();
        let mut tokens = Vec::new();
        let mut chains = Chains {
            head: vec![NO_POS; HASH_SIZE],
            prev: vec![NO_POS; n],
        };
        let mut i = 0usize;
        while i + MIN_MATCH <= n {
            let found = find(mf, data, &chains, i, mf.max_chain);
            chains.insert(data, i);
            let Some((len, dist)) = found else {
                tokens.push(Token::Literal(data[i]));
                i += 1;
                continue;
            };
            let (mut take_len, mut take_dist) = (len, dist);
            // zlib level 6: a match of MAX_LAZY bytes or more is taken
            // as it is; one of GOOD_LENGTH or more is challenged by a
            // search a quarter as long.
            let lazy_chain = if len >= MAX_LAZY {
                0
            } else if len >= GOOD_LENGTH {
                mf.max_chain / 4
            } else {
                mf.max_chain
            };
            if mf.lazy && lazy_chain > 0 {
                if let Some((len2, dist2)) = find(mf, data, &chains, i + 1, lazy_chain) {
                    if len2 > len {
                        tokens.push(Token::Literal(data[i]));
                        i += 1;
                        (take_len, take_dist) = (len2, dist2);
                    }
                }
            }
            tokens.push(Token::Match {
                len: take_len as u32,
                dist: take_dist as u32,
            });
            let end = i + take_len;
            for j in i + 1..end {
                chains.insert(data, j);
            }
            i = end;
        }
        tokens.extend(data[i..].iter().map(|&b| Token::Literal(b)));
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use proptest::prelude::*;

    const PROFILES: [MatchFinder; 2] = [MatchFinder::thorough(), MatchFinder::fast()];

    /// Inputs of length 0..70 000 — below `MIN_MATCH`, page-sized, and
    /// across the 65 535-byte boundary where the tables widen — built
    /// from pieces that give the finder something to do: noise, runs,
    /// small alphabets, and copies of earlier output at distances up to
    /// and beyond the window.
    fn arb_input() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            prop::collection::vec(any::<u8>(), 0..400).prop_map(Piece::Bytes),
            prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c', 0u8]), 0..600)
                .prop_map(Piece::Bytes),
            (any::<u8>(), 1usize..700).prop_map(|(b, n)| Piece::Bytes(vec![b; n])),
            (1usize..40_000, 1usize..600).prop_map(|(back, len)| Piece::Copy { back, len }),
        ];
        let target = prop_oneof![0usize..16, 0usize..9000, 60_000usize..70_000];
        (prop::collection::vec(piece, 1..24), target).prop_map(|(pieces, target)| {
            let mut out = Vec::with_capacity(target);
            'fill: while out.len() < target {
                for piece in &pieces {
                    match piece {
                        Piece::Bytes(bytes) => out.extend_from_slice(bytes),
                        Piece::Copy { back, len } => {
                            let start = out.len().saturating_sub(*back);
                            for k in 0..(*len).min(out.len() - start) {
                                out.push(out[start + k]);
                            }
                        }
                    }
                    if out.len() >= target {
                        break 'fill;
                    }
                }
                // All-empty pieces would never fill the target.
                out.push(out.len() as u8);
            }
            out.truncate(target);
            out
        })
    }

    #[derive(Debug, Clone)]
    enum Piece {
        Bytes(Vec<u8>),
        Copy { back: usize, len: usize },
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every profile emits the reference tokenizer's token sequence,
        /// through fresh tables and through tables another input used.
        #[test]
        fn tokens_equal_reference_tokenizer(inputs in prop::collection::vec(arb_input(), 1..3)) {
            let mut scratch = Lz77Scratch::new();
            for data in &inputs {
                for mf in PROFILES {
                    let want = reference::tokenize(&mf, data);
                    prop_assert_eq!(&mf.tokenize(data), &want, "fresh tables, {:?}", mf);
                    let mut reused = Vec::new();
                    mf.tokenize_into(data, &mut scratch, &mut reused);
                    prop_assert_eq!(&reused, &want, "reused tables, {:?}", mf);
                    prop_assert_eq!(&expand(&want), data);
                }
            }
        }
    }

    #[test]
    fn tokens_equal_reference_on_every_corpus() {
        let mut scratch = Lz77Scratch::new();
        for corpus in crate::corpus::Corpus::all() {
            for (seed, len) in [(0, 4096), (1, 4096), (2, 66_000)] {
                let data = corpus.generate(seed, len);
                for mf in PROFILES {
                    let mut tokens = Vec::new();
                    mf.tokenize_into(&data, &mut scratch, &mut tokens);
                    assert_eq!(
                        tokens,
                        reference::tokenize(&mf, &data),
                        "{} seed {seed} len {len} {mf:?}",
                        corpus.name()
                    );
                }
            }
        }
    }

    /// `data` tokenized by every profile equals the reference tokens,
    /// through fresh tables and through `scratch`.
    fn assert_reference_tokens(data: &[u8], scratch: &mut Lz77Scratch, what: &str) {
        for mf in PROFILES {
            let want = reference::tokenize(&mf, data);
            assert_eq!(mf.tokenize(data), want, "{what}, fresh tables, {mf:?}");
            let mut reused = Vec::new();
            mf.tokenize_into(data, scratch, &mut reused);
            assert_eq!(reused, want, "{what}, reused tables, {mf:?}");
        }
    }

    /// 65 535 bytes is the longest input on `u16` tables, where `NONE`
    /// is the position just past the last byte; one more byte widens
    /// them. Both ends of the switch, with matches up to the window's
    /// reach throughout and at the very end.
    #[test]
    fn inputs_either_side_of_the_table_width_switch_equal_the_reference() {
        let mut scratch = Lz77Scratch::new();
        for n in [65_535, 65_536] {
            let text = crate::corpus::Corpus::EnglishText.generate(9, n);
            let mut far = crate::corpus::Corpus::RandomBytes.generate(9, n);
            // Copies from exactly the window's reach, the last ending at
            // the final byte, and one from a byte beyond it.
            for (to, dist) in [
                (MAX_DIST, MAX_DIST),
                (40_000, MAX_DIST + 1),
                (50_000, MAX_DIST),
                (n - 300, MAX_DIST),
            ] {
                far.copy_within(to - dist..to - dist + 300, to);
            }
            let runs: Vec<u8> = (0..n).map(|i| (i / 700 % 3) as u8).collect();
            for (data, what) in [(text, "text"), (far, "window-reach copies"), (runs, "runs")] {
                assert_eq!(data.len(), n);
                assert_reference_tokens(&data, &mut scratch, &format!("{what}, {n} bytes"));
            }
        }
    }

    /// Matches that run into the last 15 bytes, where fewer than 16
    /// bytes are left to compare (`limit < 16`): periodic inputs of
    /// every length up to 64, which end inside a match, and the same
    /// with the last byte changed, which ends one byte short of it.
    #[test]
    fn matches_into_the_last_15_bytes_equal_the_reference() {
        let mut scratch = Lz77Scratch::new();
        let noise = crate::corpus::Corpus::RandomBytes.generate(3, 64);
        for period in [1, 2, 3, 4, 5, 7, 15, 16, 17, 31] {
            for n in MIN_MATCH..=64 {
                let mut data: Vec<u8> = noise[..period].iter().cycle().take(n).copied().collect();
                assert_reference_tokens(
                    &data,
                    &mut scratch,
                    &format!("period {period}, {n} bytes"),
                );
                data[n - 1] ^= 0x5a;
                assert_reference_tokens(
                    &data,
                    &mut scratch,
                    &format!("period {period}, {n} bytes, last changed"),
                );
            }
        }
    }

    /// An input that ends in `t0 .. t30` and a separator, and before
    /// them holds, oldest first: `t1 .. t30` (a 30-byte match one byte
    /// into the end), `shorts` copies of `t1 .. t4` (4-byte matches
    /// there) and `t0 .. t(first - 1)` (a `first`-byte match where the
    /// end starts). Returns the input and where `t0 .. t30` start.
    fn lazy_case(first: usize, shorts: usize) -> (Vec<u8>, usize) {
        let t = |k: usize| k as u8 + 1;
        let mut separators = 0x80u8..;
        let mut sep = || separators.next().expect("enough separator bytes");
        let mut data = vec![sep()];
        data.extend((1..=30).map(t));
        data.push(sep());
        for _ in 0..shorts {
            data.extend((1..=4).map(t));
            data.push(sep());
        }
        data.extend((0..first).map(t));
        data.push(sep());
        let at = data.len();
        data.extend((0..=30).map(t));
        data.push(sep());
        (data, at)
    }

    /// The first two tokens `MatchFinder::thorough()` emits from byte
    /// `at` on, distances zeroed; the whole stream is checked against
    /// the reference tokenizer first.
    fn tokens_from(data: &[u8], at: usize) -> Vec<Token> {
        let tokens = MatchFinder::thorough().tokenize(data);
        assert_eq!(tokens, reference::tokenize(&MatchFinder::thorough(), data));
        let mut pos = 0;
        tokens
            .into_iter()
            .skip_while(|t| {
                let before = pos;
                pos += match *t {
                    Token::Literal(_) => 1,
                    Token::Match { len, .. } => len as usize,
                };
                before < at
            })
            .map(|t| match t {
                Token::Match { len, .. } => Token::Match { len, dist: 0 },
                literal => literal,
            })
            .take(2)
            .collect()
    }

    #[test]
    fn a_match_of_16_bytes_or_more_takes_no_lazy_search() {
        let matched = |len| Token::Match { len, dist: 0 };
        // 15 bytes: the 30-byte match one byte on wins.
        let (data, at) = lazy_case(15, 0);
        assert_eq!(tokens_from(&data, at), [Token::Literal(1), matched(30)]);
        // 16 bytes: taken as it is.
        let (data, at) = lazy_case(16, 0);
        assert_eq!(tokens_from(&data, at), [matched(16), matched(15)]);
    }

    #[test]
    fn an_8_to_15_byte_match_is_challenged_by_a_quarter_chain() {
        let matched = |len| Token::Match { len, dist: 0 };
        // Forty 4-byte candidates sit on the chain before the 30-byte
        // one: a quarter of 128 links does not reach it, all 128 do.
        let (data, at) = lazy_case(7, 40);
        assert_eq!(tokens_from(&data, at), [Token::Literal(1), matched(30)]);
        for first in [8, 15] {
            let (data, at) = lazy_case(first, 40);
            assert_eq!(
                tokens_from(&data, at)[0],
                matched(first as u32),
                "a {first}-byte match"
            );
        }
        // With the chain reachable in a quarter, an 8-byte match loses.
        let (data, at) = lazy_case(8, 20);
        assert_eq!(tokens_from(&data, at), [Token::Literal(1), matched(30)]);
    }

    #[test]
    fn the_scan_hands_over_at_the_first_repeated_word() {
        assert_eq!(literal_prefix(b""), 0);
        assert_eq!(literal_prefix(b"abc"), 3);
        assert_eq!(literal_prefix(b"abcdefgh"), 8);
        assert_eq!(literal_prefix(b"abcdefghcdef"), 8);
        assert_eq!(literal_prefix(&[0; 4096]), 1);
        let noise = crate::corpus::Corpus::RandomBytes.generate(1, 4096);
        assert_eq!(literal_prefix(&noise), 4096);
    }

    #[test]
    fn a_chain_longer_than_the_scan_walks_ends_the_scan() {
        // Distinct words that share the filter bit and the chain, laid
        // out with a unique byte between them: no word repeats, but the
        // scan will not walk SCAN_CHAIN links to prove it.
        let target = mix(0x0403_0201) >> (32 - SEEN_BITS);
        let words = (0u32..)
            .filter(|&w| mix(w) >> (32 - SEEN_BITS) == target)
            .take(SCAN_CHAIN + 2);
        let mut data = Vec::new();
        for (word, sep) in words.zip(0x7eu8..=0xff) {
            data.extend_from_slice(&word.to_le_bytes());
            data.push(sep);
        }
        let mut seen = std::collections::HashSet::new();
        assert!(data.windows(4).all(|w| seen.insert(w)), "no word repeats");
        assert_eq!(literal_prefix(&data), 5 * (SCAN_CHAIN + 1));
        let mf = MatchFinder::thorough();
        assert_eq!(mf.tokenize(&data), reference::tokenize(&mf, &data));
        assert!(mf
            .tokenize(&data)
            .iter()
            .all(|t| matches!(t, Token::Literal(_))));
    }

    fn round_trip(data: &[u8], mf: MatchFinder) {
        let tokens = mf.tokenize(data);
        assert_eq!(expand(&tokens), data, "round-trip failed");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for mf in [MatchFinder::fast(), MatchFinder::thorough()] {
            round_trip(b"", mf);
            round_trip(b"a", mf);
            round_trip(b"abc", mf);
        }
    }

    #[test]
    fn repetitive_input_compresses_to_matches() {
        let data = b"hello world hello world hello world hello world";
        let tokens = MatchFinder::default().tokenize(data);
        let matches = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches >= 1);
        assert!(tokens.len() < data.len() / 2);
        round_trip(data, MatchFinder::default());
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." produces a dist-1 overlapping match like DEFLATE RLE.
        let data = vec![b'a'; 300];
        let tokens = MatchFinder::default().tokenize(&data);
        assert!(tokens.len() <= 4, "RLE should be a couple of tokens");
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn match_lengths_and_dists_in_bounds() {
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.push((i % 251) as u8);
        }
        for mf in [MatchFinder::fast(), MatchFinder::thorough()] {
            for t in mf.tokenize(&data) {
                if let Token::Match { len, dist } = t {
                    assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                    assert!((1..=MAX_DIST).contains(&(dist as usize)));
                }
            }
            round_trip(&data, mf);
        }
    }

    #[test]
    fn incompressible_input_is_all_literals() {
        // A de Bruijn-ish sequence with no 4-byte repeats.
        let data: Vec<u8> = (0..600u32)
            .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
            .collect();
        round_trip(&data, MatchFinder::default());
    }

    #[test]
    fn lazy_matching_never_corrupts() {
        let data = b"abcabcabxabcabcabcabyabcabc".repeat(20);
        round_trip(&data, MatchFinder::thorough());
        round_trip(&data, MatchFinder::fast());
    }

    /// The search's trip counts on one page of every corpus and on a
    /// long input, recorded before the block coder behind the search
    /// was rewritten: a change that is meant to leave the search alone
    /// must leave every count as it is.
    #[test]
    fn search_work_is_pinned_on_every_corpus() {
        // [searches, lazy searches, chain links, inserts]
        const PINNED: [(Corpus, [u32; 4]); 17] = [
            (Corpus::EnglishText, [1363, 481, 6494, 3171]),
            (Corpus::Html, [730, 174, 4407, 3489]),
            (Corpus::Json, [1009, 161, 3706, 3156]),
            (Corpus::Csv, [1893, 442, 7038, 2523]),
            (Corpus::SourceCode, [475, 132, 4021, 3693]),
            (Corpus::LogLines, [772, 150, 2570, 3378]),
            (Corpus::NumericF64, [0, 0, 0, 0]),
            (Corpus::DeltaIntegers, [1572, 512, 71495, 3031]),
            (Corpus::Base64, [1139, 1, 468, 3]),
            (Corpus::ZeroPage, [16, 0, 16, 4076]),
            (Corpus::SparseRecords, [236, 6, 3350, 3862]),
            (Corpus::RandomBytes, [0, 0, 0, 0]),
            (Corpus::Dna, [1474, 680, 10713, 3133]),
            (Corpus::UrlList, [795, 50, 744, 3292]),
            (Corpus::KeyValue, [522, 87, 4382, 3612]),
            (Corpus::TimeSeries, [3342, 234, 1085, 949]),
            (Corpus::StructDump, [2177, 397, 29923, 2267]),
        ];
        let counts = |data: &[u8], scratch: &mut Lz77Scratch| {
            let w = MatchFinder::default().search_work(data, scratch);
            [w.searches, w.lazy_searches, w.chain_links, w.inserts]
        };
        let mut scratch = Lz77Scratch::new();
        for (corpus, pinned) in PINNED {
            let page = corpus.generate(0, 4096);
            assert_eq!(counts(&page, &mut scratch), pinned, "{}", corpus.name());
        }
        let long = Corpus::Csv.generate(2, 70_000);
        assert_eq!(counts(&long, &mut scratch), [20380, 8425, 317316, 55879]);
    }

    #[test]
    fn reused_scratch_emits_identical_tokens() {
        let inputs: Vec<Vec<u8>> = vec![
            b"hello world hello world hello world".to_vec(),
            vec![b'a'; 300],
            (0..600u32)
                .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
                .collect(),
            b"abcabcabxabcabcabcabyabcabc".repeat(20),
            b"".to_vec(),
            b"xy".to_vec(),
        ];
        for mf in [MatchFinder::fast(), MatchFinder::thorough()] {
            let mut scratch = Lz77Scratch::new();
            for data in &inputs {
                let mut streamed = Vec::new();
                mf.tokenize_into(data, &mut scratch, &mut streamed);
                assert_eq!(streamed, mf.tokenize(data), "scratch reuse changed tokens");
            }
        }
    }

    #[test]
    fn copy_match_at_agrees_with_byte_loop() {
        // Every distance up to two blocks and every length: dist-1 RLE,
        // overlapping with every period, either side of the 8-byte
        // chunk and the 32-byte block, non-overlapping.
        let seed: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        for dist in 1..=seed.len() {
            for len in 1..=MAX_MATCH {
                let mut slow = seed.clone();
                for k in 0..len {
                    slow.push(slow[seed.len() - dist + k]);
                }
                let mut indexed = seed.clone();
                indexed.resize(seed.len() + len + COPY_SLACK, 0xEE);
                copy_match_at(&mut indexed, seed.len(), dist, len);
                assert_eq!(
                    indexed[..slow.len()],
                    slow,
                    "dist {dist} len {len}, by index"
                );
            }
        }
    }

    #[test]
    fn word_at_a_time_match_len_agrees_with_bytes() {
        let mut data = b"0123456789abcdef0123456789abcdeX".to_vec();
        data.extend_from_slice(&data.clone());
        for limit in 0..=16 {
            let expected = (0..limit).take_while(|&l| data[l] == data[16 + l]).count();
            assert_eq!(match_len(&data, 0, 16, limit), expected, "limit {limit}");
        }
    }
}
