//! Global aggregation: span timings, counters, gauges.
//!
//! # Sharded metric cells
//!
//! Counters, max-gauges and span closes are the workspace's hottest
//! telemetry paths (`qsim.gate_applies` ticks once per gate, a hybrid
//! training step closes six spans). Routing every record through one
//! global mutex makes parallel workers contend, so each thread instead
//! owns a private *shard* — registered in a global list on first use,
//! drained back into the base maps when the thread exits (worker threads
//! additionally drain at scope exit via [`crate::drain_local_metrics`]).
//! The hot path locks only its own shard's uncontended mutex. A shard's
//! span aggregates sit in slots the span module interns once per path, so
//! closing a span at a known path neither hashes its path nor allocates.
//!
//! Counters take no lock at all. Each thread interns a counter name once
//! per `&'static str` — keyed by the literal's address and length, the
//! way span paths are keyed — to a slot of its shard: an atomic total only
//! that thread writes. Snapshots read the slots, drains empty them and
//! clears zero them, all under the shard-list lock, by moving a per-slot
//! "drained" mark rather than writing the total; only a name's first
//! increment on a thread locks the shard to register its slot.
//!
//! Merging is deterministic regardless of thread count or schedule:
//! counters and span counts, totals, allocation sums and histogram buckets
//! merge by sum, max-gauges and span maxima by max, span minima by min —
//! all commutative and associative — and [`Registry::snapshot`] holds the
//! shard-list lock while merging, so a snapshot is an atomic point-in-time
//! view and stays byte-identical at any `HQNN_THREADS`. Plain last-write-wins gauges stay
//! on the base map: their value is schedule-dependent by definition, so
//! sharding could only make them *less* reproducible.

use crate::hist::LogHistogram;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

#[derive(Clone, Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u128,
    min_ns: u64,
    max_ns: u64,
    /// Log-linear latency histogram (nanoseconds): bounded memory, quantile
    /// error ≤ 1/64 — see [`crate::hist`].
    hist: LogHistogram,
    /// Allocation totals across occurrences (zero unless `HQNN_ALLOC=1`).
    alloc_count: u64,
    alloc_bytes: u64,
    /// Largest single-occurrence peak (relative to live at span entry).
    peak_bytes: u64,
}

impl SpanAgg {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns as u128;
        self.hist.record(ns);
    }

    /// Folds `other`'s occurrences into `self`.
    fn merge(&mut self, other: &SpanAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
        self.alloc_count += other.alloc_count;
        self.alloc_bytes += other.alloc_bytes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// Records one occurrence with its allocation delta.
    fn record_full(&mut self, ns: u64, alloc: Option<crate::alloc::AllocDelta>) {
        self.record(ns);
        if let Some(alloc) = alloc {
            self.alloc_count += alloc.count;
            self.alloc_bytes += alloc.bytes;
            self.peak_bytes = self.peak_bytes.max(alloc.peak_bytes);
        }
    }

    fn stats(&self) -> SpanStats {
        // Quantiles are bucket upper bounds; clamping into [min, max] keeps
        // them inside the observed range (and makes q=1.0 exactly `max`).
        let q =
            |q: f64| Duration::from_nanos(self.hist.quantile(q).clamp(self.min_ns, self.max_ns));
        SpanStats {
            count: self.count,
            total: Duration::from_nanos(self.total_ns.min(u64::MAX as u128) as u64),
            min: Duration::from_nanos(self.min_ns),
            max: Duration::from_nanos(self.max_ns),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            alloc_count: self.alloc_count,
            alloc_bytes: self.alloc_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// Aggregated statistics for one span path. Percentiles come from a
/// log-linear histogram and overshoot the exact sample quantile by at most
/// 1/64 (≈1.6%).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total: Duration,
    pub min: Duration,
    pub max: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Allocations attributed to this span path across all occurrences
    /// (same-thread subtree; zero unless `HQNN_ALLOC=1` was on).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Largest single-occurrence peak of live bytes above the level at
    /// span entry.
    pub peak_bytes: u64,
}

/// A point-in-time copy of the registry, shard deltas included.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Keyed by full span path, e.g. `repro/train/epoch`.
    pub spans: HashMap<String, SpanStats>,
    pub counters: HashMap<String, u64>,
    pub gauges: HashMap<String, f64>,
}

/// Alias kept for API clarity in downstream code.
pub type CounterSnapshot = HashMap<String, u64>;

/// FNV-1a. Metric names are short trusted literals, so the shard hot path
/// trades SipHash's DoS resistance for ~2× cheaper hashing. The base maps
/// keep the default hasher — they are cold and hold externally-visible
/// state.
#[derive(Default)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<V> = HashMap<String, V, BuildHasherDefault<Fnv1a>>;

/// Multiplicative hashing of machine words, for the per-thread tables
/// keyed by addresses: the keys are never attacker-chosen, and the hot
/// paths hash one key per span open or counter increment.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// One thread's share of one counter. Only its own thread writes `total`,
/// so an increment is a plain load and store, not a locked read-modify-
/// write; drains and clears, which may run on any thread, never touch
/// `total` but move the `drained` mark up to it, so neither can lose an
/// increment racing with them. The slot publishes no data but its own
/// counts, and readers see a complete count only after the pool's join or
/// the shard-list lock; its release stores pair with the acquire loads of
/// the reading paths, which on x86-64 are plain moves like relaxed ones.
#[derive(Default)]
struct CounterSlot {
    /// Everything the thread has added to this counter.
    total: AtomicU64,
    /// `total` as of the last drain or clear (written under the
    /// shard-list lock only).
    drained: AtomicU64,
    /// Set by every increment and cleared by drains and clears, so a
    /// counter bumped only by zero since then still shows up as a key.
    live: AtomicBool,
}

impl CounterSlot {
    fn add(&self, delta: u64) {
        let total = self.total.load(Ordering::Acquire);
        self.total
            .store(total.wrapping_add(delta), Ordering::Release);
        self.live.store(true, Ordering::Release);
    }

    /// The count since the last drain or clear, or `None` when nothing was
    /// added since then.
    fn load(&self) -> Option<u64> {
        let live = self.live.load(Ordering::Acquire);
        let total = self.total.load(Ordering::Acquire);
        let count = total.wrapping_sub(self.drained.load(Ordering::Acquire));
        (count > 0 || live).then_some(count)
    }

    /// Empties the slot, returning what [`CounterSlot::load`] would have.
    fn take(&self) -> Option<u64> {
        let live = self.live.swap(false, Ordering::SeqCst);
        let total = self.total.load(Ordering::Acquire);
        let count = total.wrapping_sub(self.drained.swap(total, Ordering::SeqCst));
        (count > 0 || live).then_some(count)
    }

    fn zero(&self) {
        self.live.store(false, Ordering::Release);
        self.drained
            .store(self.total.load(Ordering::Acquire), Ordering::Release);
    }
}

/// One thread's private metric cell.
#[derive(Default)]
struct ShardData {
    /// Counter slots by name text, one per name however many copies of
    /// the literal a thread increments it through.
    counters: Vec<(&'static str, Arc<CounterSlot>)>,
    /// High-water-mark gauges ([`crate::gauge_max`]); merged by max.
    max_gauges: FnvMap<f64>,
    /// Span aggregates by slot ([`span_slot`]). Draining zeroes a slot in
    /// place, so slot numbers stay valid for the thread's lifetime.
    spans: Vec<(Arc<str>, SpanAgg)>,
}

type Shard = Mutex<ShardData>;

#[derive(Default)]
pub(crate) struct Registry {
    spans: Mutex<HashMap<String, SpanAgg>>,
    /// Span paths recorded since the last clear, on any thread — what
    /// decides the one example `span` event per path.
    seen: Mutex<std::collections::HashSet<String>>,
    counters: Mutex<HashMap<String, u64>>,
    gauges: Mutex<HashMap<String, f64>>,
    /// Live per-thread shards. Snapshot/drain hold this lock while touching
    /// the shards, which serialises them against thread-exit drains — a
    /// snapshot never misses or double-counts a concurrently-retiring shard.
    shards: Mutex<Vec<Arc<Shard>>>,
}

pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `(address, length)` of a counter name: a static name's address and
/// length identify its text. The compiler may keep more than one copy of
/// a literal; each copy gets its own key, all sharing the name's one slot.
type NameKey = (usize, usize);

/// Owns one thread's registration in the shard list; dropping (thread exit)
/// drains the shard into the base maps and deregisters it.
struct ShardHandle {
    shard: Arc<Shard>,
    /// This thread's interned counter names.
    counters: RefCell<HashMap<NameKey, Arc<CounterSlot>, BuildHasherDefault<WordHasher>>>,
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        global().retire_shard(&self.shard);
    }
}

thread_local! {
    static LOCAL_SHARD: ShardHandle = global().register_shard();
}

/// Runs `f` on this thread's shard, registering one on first use. Returns
/// `None` when thread-local storage is gone (thread teardown) — callers
/// fall back to the base maps.
fn with_local_shard<R>(f: impl FnOnce(&mut ShardData) -> R) -> Option<R> {
    LOCAL_SHARD
        .try_with(|handle| f(&mut lock(&handle.shard)))
        .ok()
}

/// Adds `delta` to `name` in this thread's shard (base map during teardown).
/// The hit path (every call after a name's first on this thread) hashes
/// two words, takes no lock and allocates nothing: it adds to the slot the
/// name was interned to with a plain atomic load and store.
pub(crate) fn add_counter_sharded(name: &'static str, delta: u64) {
    let key = (name.as_ptr() as usize, name.len());
    let direct = LOCAL_SHARD.try_with(|handle| {
        let hit = handle
            .counters
            .borrow()
            .get(&key)
            .map(|slot| slot.add(delta));
        if hit.is_none() {
            let slot = handle.counter_slot(name);
            slot.add(delta);
            handle.counters.borrow_mut().insert(key, slot);
        }
    });
    if direct.is_err() {
        global().add_counter(name, delta);
    }
}

impl ShardHandle {
    /// The shard's slot for the text of `name`, registered on first use.
    fn counter_slot(&self, name: &'static str) -> Arc<CounterSlot> {
        let mut data = lock(&self.shard);
        if let Some((_, slot)) = data.counters.iter().find(|(n, _)| *n == name) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(CounterSlot::default());
        data.counters.push((name, Arc::clone(&slot)));
        slot
    }
}

/// Raises `name` to `value` in this thread's shard (base map on teardown).
/// Allocation-free on the hit path, like [`add_counter_sharded`].
pub(crate) fn set_gauge_max_sharded(name: &str, value: f64) {
    let direct = with_local_shard(|data| {
        if let Some(slot) = data.max_gauges.get_mut(name) {
            *slot = slot.max(value);
        } else {
            data.max_gauges.insert(name.to_string(), value);
        }
    });
    if direct.is_none() {
        global().set_gauge_max(name, value);
    }
}

/// This thread's span slot for `path` — one per path text, registered on
/// first use — with the shared copy of the path it records under, or
/// `usize::MAX` during thread teardown (closes then record into the base
/// map).
pub(crate) fn span_slot(path: &str) -> (Arc<str>, usize) {
    with_local_shard(|data| {
        if let Some(slot) = data.spans.iter().position(|(p, _)| **p == *path) {
            return (Arc::clone(&data.spans[slot].0), slot);
        }
        let path: Arc<str> = Arc::from(path);
        data.spans.push((Arc::clone(&path), SpanAgg::default()));
        (path, data.spans.len() - 1)
    })
    .unwrap_or_else(|| (Arc::from(path), usize::MAX))
}

/// Records one close of the span at `path` into this thread's `slot`,
/// returning `true` when it is the path's first record on any thread. The
/// hit path takes only the thread's own shard lock and allocates nothing;
/// a slot that is not this thread's (teardown, or a guard dropped on
/// another thread) records into the base map by path instead.
pub(crate) fn record_span_local(
    slot: usize,
    path: &Arc<str>,
    duration: Duration,
    alloc: Option<crate::alloc::AllocDelta>,
) -> bool {
    let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
    let local = with_local_shard(|data| match data.spans.get_mut(slot) {
        Some((p, agg)) if Arc::ptr_eq(p, path) => {
            agg.record_full(ns, alloc);
            Some(agg.count == 1)
        }
        _ => None,
    })
    .flatten();
    match local {
        Some(true) => global().mark_seen(path),
        Some(false) => false,
        None => global().record_span_full(path, duration, alloc),
    }
}

/// Drains this thread's shard into the base maps without deregistering it
/// (the thread keeps recording afterwards).
pub(crate) fn drain_local() {
    let _ = LOCAL_SHARD.try_with(|handle| {
        let reg = global();
        let _shards = lock(&reg.shards); // serialise vs snapshot
        reg.merge_shard_into_base(&handle.shard);
    });
}

impl Registry {
    /// Returns `true` when this is the first record for `path` — used to
    /// emit one example `span` event per path even below debug level.
    pub(crate) fn record_span(&self, path: &str, duration: Duration) -> bool {
        self.record_span_full(path, duration, None)
    }

    /// [`Registry::record_span`] plus the span's allocation delta (when
    /// `HQNN_ALLOC` counting was on for the occurrence).
    pub(crate) fn record_span_full(
        &self,
        path: &str,
        duration: Duration,
        alloc: Option<crate::alloc::AllocDelta>,
    ) -> bool {
        let ns = duration.as_nanos().min(u64::MAX as u128) as u64;
        // Look the path up first so recording a known path allocates nothing.
        let first = {
            let mut spans = lock(&self.spans);
            let agg = match spans.get_mut(path) {
                Some(agg) => agg,
                None => spans.entry(path.to_string()).or_default(),
            };
            agg.record_full(ns, alloc);
            agg.count == 1
        };
        first && self.mark_seen(path)
    }

    /// Notes that `path` was recorded; `true` the first time since the
    /// last clear.
    fn mark_seen(&self, path: &str) -> bool {
        let mut seen = lock(&self.seen);
        !seen.contains(path) && seen.insert(path.to_string())
    }

    pub(crate) fn add_counter(&self, name: &str, delta: u64) {
        *lock(&self.counters).entry(name.to_string()).or_insert(0) += delta;
    }

    pub(crate) fn set_gauge(&self, name: &str, value: f64) {
        lock(&self.gauges).insert(name.to_string(), value);
    }

    /// Raises the gauge to `value` if it is higher than the stored value
    /// (or absent). Unlike [`Registry::set_gauge`]'s last-writer-wins, this
    /// is order-independent, so concurrent writers race-freely converge on
    /// the same high-water mark.
    pub(crate) fn set_gauge_max(&self, name: &str, value: f64) {
        lock(&self.gauges)
            .entry(name.to_string())
            .and_modify(|v| *v = v.max(value))
            .or_insert(value);
    }

    fn register_shard(&self) -> ShardHandle {
        let shard = Arc::new(Mutex::new(ShardData::default()));
        lock(&self.shards).push(Arc::clone(&shard));
        ShardHandle {
            shard,
            counters: RefCell::default(),
        }
    }

    /// Empties `shard` into the base maps. Callers must hold the
    /// shard-list lock (or be inside `retire_shard`, which does).
    fn merge_shard_into_base(&self, shard: &Arc<Shard>) {
        let mut data = lock(shard);
        if data.spans.iter().any(|(_, agg)| agg.count > 0) {
            let mut spans = lock(&self.spans);
            for (path, agg) in data.spans.iter_mut().filter(|(_, agg)| agg.count > 0) {
                let agg = std::mem::take(agg);
                match spans.get_mut(&**path) {
                    Some(base) => base.merge(&agg),
                    None => {
                        spans.insert(path.to_string(), agg);
                    }
                }
            }
        }
        let drained_counters: Vec<_> = data
            .counters
            .iter()
            .filter_map(|(name, slot)| Some((*name, slot.take()?)))
            .collect();
        let drained_gauges = std::mem::take(&mut data.max_gauges);
        drop(data);
        if !drained_counters.is_empty() {
            let mut counters = lock(&self.counters);
            for (name, delta) in drained_counters {
                *counters.entry(name.to_string()).or_insert(0) += delta;
            }
        }
        if !drained_gauges.is_empty() {
            let mut gauges = lock(&self.gauges);
            for (name, value) in drained_gauges {
                gauges
                    .entry(name)
                    .and_modify(|v| *v = v.max(value))
                    .or_insert(value);
            }
        }
    }

    /// Thread-exit path: drain and deregister in one critical section.
    fn retire_shard(&self, shard: &Arc<Shard>) {
        let mut shards = lock(&self.shards);
        self.merge_shard_into_base(shard);
        shards.retain(|s| !Arc::ptr_eq(s, shard));
    }

    /// Drains every live shard into the base maps (threads stay registered
    /// and keep recording). Used by [`crate::flush`] so exported metrics
    /// include in-flight worker deltas.
    pub(crate) fn drain_all_shards(&self) {
        let shards = lock(&self.shards);
        for shard in shards.iter() {
            self.merge_shard_into_base(shard);
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        // Shard-list lock held for the whole merge: atomic point in time.
        let shards = lock(&self.shards);
        let mut counters = lock(&self.counters).clone();
        let mut gauges = lock(&self.gauges).clone();
        for shard in shards.iter() {
            let data = lock(shard);
            for (name, slot) in &data.counters {
                if let Some(delta) = slot.load() {
                    *counters.entry(name.to_string()).or_insert(0) += delta;
                }
            }
            for (name, value) in &data.max_gauges {
                gauges
                    .entry(name.clone())
                    .and_modify(|v| *v = v.max(*value))
                    .or_insert(*value);
            }
        }
        // Every record of a path — the base map's and each shard slot's —
        // is gathered by reference; only a path recorded in more than one
        // place is merged into a temporary aggregate.
        let base = lock(&self.spans);
        let shard_data: Vec<_> = shards.iter().map(|shard| lock(shard)).collect();
        let mut parts: HashMap<&str, Vec<&SpanAgg>> = HashMap::new();
        let shard_slots = shard_data.iter().flat_map(|data| data.spans.iter());
        let recorded = base
            .iter()
            .map(|(path, agg)| (path.as_str(), agg))
            .chain(shard_slots.map(|(path, agg)| (&**path, agg)))
            .filter(|(_, agg)| agg.count > 0);
        for (path, agg) in recorded {
            parts.entry(path).or_default().push(agg);
        }
        let spans = parts
            .into_iter()
            .map(|(path, aggs)| {
                let stats = match aggs[..] {
                    [one] => one.stats(),
                    _ => {
                        let mut merged = SpanAgg::default();
                        for agg in aggs {
                            merged.merge(agg);
                        }
                        merged.stats()
                    }
                };
                (path.to_string(), stats)
            })
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
        }
    }

    pub(crate) fn clear(&self) {
        let shards = lock(&self.shards);
        for shard in shards.iter() {
            let mut data = lock(shard);
            for (_, slot) in &data.counters {
                slot.zero();
            }
            data.max_gauges.clear();
            for (_, agg) in &mut data.spans {
                *agg = SpanAgg::default();
            }
        }
        lock(&self.spans).clear();
        lock(&self.seen).clear();
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile on an unsorted sample set. `q` in `[0, 1]`.
    /// The exact reference that histogram quantiles are tested against.
    fn percentile_ns(samples: &mut [u64], q: f64) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&mut s, 0.50), 50);
        assert_eq!(percentile_ns(&mut s, 0.99), 99);
        assert_eq!(percentile_ns(&mut s, 1.0), 100);
        let mut one = vec![7];
        assert_eq!(percentile_ns(&mut one, 0.5), 7);
        assert_eq!(percentile_ns(&mut [][..], 0.5), 0);
    }

    #[test]
    fn span_agg_quantiles_respect_error_bound() {
        let mut agg = SpanAgg::default();
        let mut samples: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 10_000_000)
            .collect();
        for &s in &samples {
            agg.record(s);
        }
        let stats = agg.stats();
        assert_eq!(stats.count, 20_000);
        for (q, reported) in [(0.50, stats.p50), (0.95, stats.p95), (0.99, stats.p99)] {
            let exact = percentile_ns(&mut samples, q);
            let reported = reported.as_nanos() as u64;
            assert!(reported >= exact, "q={q}: {reported} < exact {exact}");
            assert!(
                reported - exact <= exact / 64 + 1,
                "q={q}: {reported} outside 1/64 bound of {exact}"
            );
        }
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        assert!(stats.p99 <= stats.max);
    }

    // Cross-thread shard merge behaviour is covered in tests/integration.rs
    // and tests/sharding.rs, which serialise access to the global registry;
    // unit tests here stay on thread-private state only.
}
