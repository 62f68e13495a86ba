//! Progressive sequence synthesis — Algorithm 3 of the paper.
//!
//! The *Prefix Sequence* index `PS` maps `(ending type τ, length λ)` to the
//! indexes of already-generated sequences in `S`, so that when a new affinity
//! `t1 → t2` is discovered, only the sequences containing that new affinity
//! are synthesized (Figure 6), never the whole space again.
//!
//! The store works entirely on packed `u128` sequence keys (see
//! [`crate::ngram::pack_seq`]): campaign profiles showed Algorithm 3's
//! enumeration dominating the feedback stage, and at ~200k recorded
//! sequences per campaign the per-node `Vec` allocation and SipHash of the
//! obvious `Vec<StmtKind>` representation were the entire cost. Appending a
//! statement type is one shift-or, duplicate probes hit an open-addressing
//! set, and a recorded sequence is a single `u128` push.

use crate::affinity::AffinityMap;
use crate::ngram::{pack_seq, unpack_seq, SeqKeySet, MAX_PACKED_SEQ};
use lego_sqlast::StmtKind;

/// The synthesized-sequence store: `S`, `PS`, and the length limit `LEN`.
#[derive(Clone, Debug)]
pub struct SequenceStore {
    /// `S`: every recorded sequence as a packed key, in record order (the
    /// order is the checkpoint format — `PS` reconstructs from it).
    seqs: Vec<u128>,
    /// The `PS` index, flattened: row `code(τ)·(LEN+1) + λ` lists the
    /// indexes (into `seqs`) of recorded sequences ending in τ with length
    /// λ. A flat table instead of a `HashMap` keyed by `(τ, λ)`: `record`
    /// appends on every explored node, and the SipHash per append was
    /// measurable in campaign profiles.
    ps: Vec<Vec<u32>>,
    /// Every sequence ever recorded; duplicate suppression, so
    /// re-discovering an affinity (or reaching the same sequence through two
    /// synthesis paths) never re-instantiates it. Probed once per explored
    /// node — the hottest loop of the feedback stage.
    seen: SeqKeySet,
    max_len: usize,
    /// Global cap on stored sequences (state-explosion guard, § II C1).
    cap: usize,
    /// How often a synthesis walk was cut short (reported, never silent):
    /// one count for every frame of the walk that a per-call `limit` trip
    /// unwinds, plus one per call that filled the store or found it full —
    /// the walk stops there, as nothing more can be recorded.
    pub truncated: usize,
}

impl SequenceStore {
    /// `max_len` is the paper's `LEN` (default 5 in [`crate::Config`]);
    /// `starters` seed the store with length-1 prefixes ("beginning from
    /// specific starting statement types, e.g. CREATE TABLE").
    pub fn new(max_len: usize, starters: &[StmtKind]) -> Self {
        let mut store = Self::empty(max_len);
        for &s in starters {
            store.record(pack_seq(&[s]), 1, s);
        }
        store
    }

    /// Rebuild a store from a checkpointed sequence list (in original record
    /// order, which reconstructs the `PS` index exactly) plus the truncation
    /// counter. The starters are already part of `seqs`, so the caller passes
    /// the full list and no separate starter set.
    pub fn from_parts(max_len: usize, seqs: Vec<Vec<StmtKind>>, truncated: usize) -> Self {
        let mut store = Self::empty(max_len);
        for seq in seqs {
            let last = *seq.last().expect("checkpointed sequences are non-empty");
            store.record(pack_seq(&seq), seq.len(), last);
        }
        store.truncated = truncated;
        store
    }

    fn empty(max_len: usize) -> Self {
        assert!(max_len >= 2, "LEN must allow at least one affinity");
        assert!(max_len <= MAX_PACKED_SEQ, "packed sequence keys support LEN <= {MAX_PACKED_SEQ}");
        Self {
            seqs: Vec::new(),
            ps: vec![Vec::new(); StmtKind::COUNT * (max_len + 1)],
            seen: SeqKeySet::new(),
            max_len,
            cap: 200_000,
            truncated: 0,
        }
    }

    pub fn max_len(&self) -> usize {
        self.max_len
    }

    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Whether `S` holds `cap` sequences: from then on nothing can be
    /// recorded, so synthesis returns without walking.
    pub fn is_full(&self) -> bool {
        self.seqs.len() >= self.cap
    }

    /// Materialize the stored sequences in record order (checkpoint
    /// serialization and tests; campaigns never call this per case).
    pub fn sequences(&self) -> Vec<Vec<StmtKind>> {
        self.seqs.iter().map(|&k| unpack_seq(k)).collect()
    }

    /// Record a sequence given its packed key, length, and final type;
    /// returns `true` if it was genuinely new and under the cap. Callers on
    /// the synthesis walk pre-prune via `seen` and stop once the store is
    /// full, so a rejection here is only possible from `new`/`from_parts`
    /// replays.
    fn record(&mut self, key: u128, len: usize, last: StmtKind) -> bool {
        if self.seen.contains(key) || self.is_full() {
            return false;
        }
        self.seen.insert(key);
        let idx = self.seqs.len() as u32;
        let row = self.ps_row(last, len);
        self.ps[row].push(idx);
        self.seqs.push(key);
        true
    }

    #[inline]
    fn ps_row(&self, last: StmtKind, len: usize) -> usize {
        last.code() as usize * (self.max_len + 1) + len
    }

    /// Algorithm 3: when affinity `t1 → t2` is newly discovered, synthesize
    /// every new sequence (≤ `LEN`) containing it, up to `limit` sequences
    /// per call (an engineering guard; overflow is counted in `truncated`).
    /// Returns the new sequences as packed keys, in discovery order.
    ///
    /// The walk stops as soon as the store is full. Past the cap `record`
    /// can add nothing, so the rest of the walk could only return nothing
    /// and change nothing but `truncated` — and because cap rejections never
    /// enter `seen`, closure pruning no longer bounds it: it would be a full
    /// descent per call. Stopping returns the same keys in the same order.
    pub fn on_new_affinity(
        &mut self,
        t1: StmtKind,
        t2: StmtKind,
        map: &AffinityMap,
        limit: usize,
    ) -> Vec<u128> {
        if self.is_full() {
            self.truncated += 1;
            return Vec::new();
        }
        let t2_lane = t2.code() as u128 + 1;
        let mut out: Vec<u128> = Vec::new();
        for level in 1..self.max_len {
            // Index walk instead of a row snapshot: sequences recorded while
            // this level is processed are strictly longer than `level`, so
            // the row can only grow at later levels — the walk sees exactly
            // what a per-level snapshot would.
            let row = self.ps_row(t1, level);
            let mut i = 0;
            while i < self.ps[row].len() {
                let prefix = self.seqs[self.ps[row][i] as usize];
                i += 1;
                if out.len() >= limit {
                    self.truncated += 1;
                    return out;
                }
                let key = prefix | (t2_lane << (level * 16));
                // Closure pruning: every recorded sequence had its whole
                // extension subtree explored (under the map current at its
                // record time, and later edges re-explore via their own
                // `on_new_affinity` call), so a seen node's subtree is seen
                // too — descending it can only rediscover duplicates.
                if self.seen.contains(key) {
                    continue;
                }
                if self.record(key, level + 1, t2) {
                    out.push(key);
                }
                self.list_seq(level + 1, t2, key, map, limit, &mut out);
                if self.is_full() {
                    self.truncated += 1;
                    return out;
                }
            }
        }
        out
    }

    /// The recursive `listSeq` of Algorithm 3: extend the length-`level`
    /// sequence `key` with every affinity-compatible next type until `LEN`.
    /// Returns early once the store is full; `on_new_affinity` counts that
    /// cut once per call.
    fn list_seq(
        &mut self,
        level: usize,
        node_type: StmtKind,
        key: u128,
        map: &AffinityMap,
        limit: usize,
        out: &mut Vec<u128>,
    ) {
        if level >= self.max_len || self.is_full() {
            return;
        }
        for next in map.successors(node_type) {
            if out.len() >= limit {
                self.truncated += 1;
                return;
            }
            let child = key | ((next.code() as u128 + 1) << (level * 16));
            // Same closure pruning as `on_new_affinity`: a seen node's
            // subtree holds only duplicates, skip the descent.
            if self.seen.contains(child) {
                continue;
            }
            self.list_seq(level + 1, next, child, map, limit, out);
            if self.is_full() {
                return;
            }
            if out.len() >= limit {
                self.truncated += 1;
                return;
            }
            if self.record(child, level + 1, next) {
                out.push(child);
                if self.is_full() {
                    return;
                }
            }
        }
    }
}

/// Kind-level plausibility probe for `--sema` campaigns: decode the packed
/// sequence and ask the static analyzer whether every statement type is
/// supported by the dialect and none is unconditionally rejected by the
/// engine. Synthesized drafts that fail this are dead on arrival — no
/// instantiation can make them execute — so the campaign drops them before
/// paying for AST generation.
pub fn plausible_key(key: u128, dialect: lego_sqlast::Dialect) -> bool {
    lego_sqlsema::plausible_sequence(&unpack_seq(key), dialect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};

    const CT: StmtKind = StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table);
    const INS: StmtKind = StmtKind::Other(StandaloneKind::Insert);
    const SEL: StmtKind = StmtKind::Other(StandaloneKind::Select);
    const UPD: StmtKind = StmtKind::Other(StandaloneKind::Update);

    /// Decode a discovery batch for readable assertions.
    fn unpacked(keys: &[u128]) -> Vec<Vec<StmtKind>> {
        keys.iter().map(|&k| unpack_seq(k)).collect()
    }

    #[test]
    fn paper_example_length_two() {
        // "suppose the length of target sequence is 2, current sequence is
        // CREATE TABLE, type-affinity is CREATE TABLE -> [INSERT, SELECT]:
        // we get CREATE TABLE, INSERT and CREATE TABLE, SELECT."
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(2, &[CT]);
        map.insert(CT, INS);
        let got = store.on_new_affinity(CT, INS, &map, 1000);
        assert_eq!(unpacked(&got), vec![vec![CT, INS]]);
        map.insert(CT, SEL);
        let got = store.on_new_affinity(CT, SEL, &map, 1000);
        assert_eq!(unpacked(&got), vec![vec![CT, SEL]]);
    }

    #[test]
    fn new_affinity_extends_existing_prefixes() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        store.on_new_affinity(CT, INS, &map, 1000);
        map.insert(INS, SEL);
        let got = store.on_new_affinity(INS, SEL, &map, 1000);
        // Extends [CT, INS] -> [CT, INS, SEL]; no prefix ends with INS at
        // level 1 (INS is not a starter).
        assert!(unpacked(&got).contains(&vec![CT, INS, SEL]));
    }

    #[test]
    fn forward_closure_via_list_seq() {
        // Affinities arriving out of order still produce the full chain:
        // (INS, SEL) first (useless), then (CT, INS) triggers listSeq which
        // walks INS -> SEL.
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(INS, SEL);
        let got = store.on_new_affinity(INS, SEL, &map, 1000);
        assert!(got.is_empty());
        map.insert(CT, INS);
        let got = unpacked(&store.on_new_affinity(CT, INS, &map, 1000));
        assert!(got.contains(&vec![CT, INS]));
        assert!(got.contains(&vec![CT, INS, SEL]));
    }

    #[test]
    fn sequences_never_exceed_len() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(4, &[CT]);
        for (a, b) in [(CT, INS), (INS, SEL), (SEL, UPD), (UPD, INS)] {
            map.insert(a, b);
            store.on_new_affinity(a, b, &map, 10_000);
        }
        assert!(store.sequences().iter().all(|s| s.len() <= 4));
        assert!(store.sequences().iter().any(|s| s.len() == 4));
    }

    #[test]
    fn per_call_limit_counts_truncation() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(5, &[CT]);
        // A dense affinity graph explodes; the limit must hold.
        let kinds = [CT, INS, SEL, UPD];
        for &a in &kinds {
            for &b in &kinds {
                if a != b {
                    map.insert(a, b);
                }
            }
        }
        let got = store.on_new_affinity(CT, INS, &map, 16);
        assert!(got.len() <= 16);
        assert!(store.truncated > 0);
    }

    #[test]
    fn repeated_affinity_discovery_is_idempotent() {
        // `on_new_affinity` called twice for the same pair must not record
        // (and hence never re-instantiate) the same sequences again.
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        let first = store.on_new_affinity(CT, INS, &map, 1000);
        assert!(!first.is_empty());
        let before = store.len();
        let again = store.on_new_affinity(CT, INS, &map, 1000);
        assert!(again.is_empty(), "duplicate discovery synthesized {again:?}");
        assert_eq!(store.len(), before);
    }

    #[test]
    fn from_parts_reconstructs_the_prefix_index() {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(3, &[CT]);
        map.insert(CT, INS);
        store.on_new_affinity(CT, INS, &map, 1000);
        let rebuilt = SequenceStore::from_parts(3, store.sequences(), store.truncated);
        assert_eq!(rebuilt.sequences(), store.sequences());
        // The rebuilt PS index must extend prefixes exactly like the
        // original would.
        map.insert(INS, SEL);
        let (mut a, mut b) = (store, rebuilt);
        assert_eq!(
            a.on_new_affinity(INS, SEL, &map, 1000),
            b.on_new_affinity(INS, SEL, &map, 1000)
        );
    }

    /// A store on LEN 4 over a dense four-kind graph, grown by replaying
    /// every affinity but `CT → INS`, plus the map that includes it.
    fn dense_store() -> (SequenceStore, AffinityMap) {
        let mut map = AffinityMap::new();
        let mut store = SequenceStore::new(4, &[CT]);
        let kinds = [CT, INS, SEL, UPD];
        for &a in &kinds {
            for &b in &kinds {
                if (a, b) != (CT, INS) {
                    map.insert(a, b);
                    store.on_new_affinity(a, b, &map, 10_000);
                }
            }
        }
        map.insert(CT, INS);
        (store, map)
    }

    /// For every cap the call can reach, the capped call returns exactly the
    /// first `cap - len_before` keys of the uncapped call and stops with a
    /// full store.
    fn assert_capped_prefixes(
        base: &SequenceStore,
        (t1, t2): (StmtKind, StmtKind),
        map: &AffinityMap,
        limit: usize,
    ) {
        let full = base.clone().on_new_affinity(t1, t2, map, limit);
        assert!(!full.is_empty());
        for k in 1..=full.len() {
            let mut capped = base.clone();
            capped.cap = base.len() + k;
            let got = capped.on_new_affinity(t1, t2, map, limit);
            assert_eq!(got, full[..k], "cap {} (k = {k})", capped.cap);
            assert!(capped.is_full());
            assert_eq!(capped.sequences()[base.len()..], unpacked(&got)[..]);
        }
    }

    #[test]
    fn a_capped_walk_returns_the_uncapped_prefix() {
        // Hand-sized walk: [CT, INS] is recorded by the pre-order loop of
        // `on_new_affinity`, then [CT, INS, SEL] and [CT, INS, UPD] by the
        // post-order `list_seq` — cap 2 crosses in the former, cap 3 in the
        // latter.
        let mut map = AffinityMap::new();
        map.insert(INS, SEL);
        map.insert(INS, UPD);
        map.insert(CT, INS);
        let store = SequenceStore::new(3, &[CT]);
        let full = store.clone().on_new_affinity(CT, INS, &map, 1000);
        assert_eq!(unpacked(&full), vec![vec![CT, INS], vec![CT, INS, SEL], vec![CT, INS, UPD]]);
        assert_capped_prefixes(&store, (CT, INS), &map, 1000);

        // Dense graph on a grown store, with and without the per-call limit
        // tripping first.
        let (store, map) = dense_store();
        assert_capped_prefixes(&store, (CT, INS), &map, 10_000);
        assert_capped_prefixes(&store, (CT, INS), &map, 7);
    }

    #[test]
    fn a_full_store_refuses_without_walking() {
        let (mut store, map) = dense_store();
        store.cap = store.len();
        assert!(store.is_full());
        let (len, truncated) = (store.len(), store.truncated);
        assert!(store.on_new_affinity(CT, INS, &map, 10_000).is_empty());
        assert_eq!(store.len(), len);
        assert_eq!(store.truncated, truncated + 1);

        // Filling the store mid-call also counts exactly once, whatever the
        // walk had left.
        let (mut store, map) = dense_store();
        store.cap = store.len() + 1;
        let truncated = store.truncated;
        assert_eq!(store.on_new_affinity(CT, INS, &map, 10_000).len(), 1);
        assert_eq!(store.truncated, truncated + 1);
    }

    #[test]
    fn a_store_rebuilt_from_a_full_one_keeps_refusing() {
        let (mut store, map) = dense_store();
        store.cap = store.len();
        let mut rebuilt = SequenceStore::from_parts(4, store.sequences(), store.truncated);
        rebuilt.cap = store.cap;
        assert!(rebuilt.is_full());
        for s in [&mut store, &mut rebuilt] {
            let (len, truncated) = (s.len(), s.truncated);
            assert!(s.on_new_affinity(CT, INS, &map, 10_000).is_empty());
            assert_eq!((s.len(), s.truncated), (len, truncated + 1));
        }
        assert_eq!(rebuilt.sequences(), store.sequences());
    }

    #[test]
    fn duplicate_cycles_are_bounded_by_len() {
        // A <-> B ping-pong must terminate at LEN.
        let a = CT;
        let b = INS;
        let mut map = AffinityMap::new();
        map.insert(a, b);
        map.insert(b, a);
        let mut store = SequenceStore::new(5, &[a]);
        store.on_new_affinity(a, b, &map, 100_000);
        store.on_new_affinity(b, a, &map, 100_000);
        assert!(store.sequences().iter().all(|s| s.len() <= 5));
    }
}
