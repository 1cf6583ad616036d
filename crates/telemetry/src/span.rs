//! RAII span guards with per-thread nesting and deterministic causal IDs.
//!
//! # Causal identity
//!
//! Every span gets a `span_id` and a `parent_id` derived with FNV-1a from
//! `(parent_id, name, sequence)` — the sequence being "how many children has
//! this parent opened before me". Because the derivation walks the *logical*
//! call tree (parent link + per-parent child counter) and never touches
//! thread ids, clocks, or addresses, the IDs are byte-identical at any
//! `HQNN_THREADS`: item `i` of a `par_map` fan-out gets the same IDs whether
//! it ran inline, on worker 0, or on worker 7.
//!
//! Cross-thread (and cross-item) linkage flows through [`CausalContext`]:
//! the pool captures [`current_causal_context`] once on the calling thread
//! and installs it around each work item with [`propagate_causal_context`],
//! which seeds the item's spans with the caller's span as parent and an
//! item-indexed sequence base (`(i + 1) << 32`, so item-root sequences can
//! never collide with the caller's direct children).
//!
//! # Interned paths
//!
//! A span's path is its parent's path plus its name. Each thread interns
//! the path once per (parent path, name) — together with the registry slot
//! its closes record into — so opening and closing a span at a path the
//! thread has seen before builds no string, allocates nothing and takes no
//! global lock. Parents are told apart by the address of their interned
//! path, which the table keeps alive.

use crate::event::{FieldValue, Level};
use crate::registry::{self, WordHasher};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// `span_id = FNV-1a(parent_id ∥ name ∥ seq)`, remapped off zero so that
/// `0` can keep meaning "no span".
fn derive_span_id(parent_id: u64, name: &str, seq: u64) -> u64 {
    let hash = fnv1a(FNV_OFFSET, &parent_id.to_le_bytes());
    let hash = fnv1a(hash, name.as_bytes());
    let hash = fnv1a(hash, &seq.to_le_bytes());
    if hash == 0 {
        // Vanishingly unlikely; any fixed nonzero value keeps determinism.
        0x9e37_79b9_7f4a_7c15
    } else {
        hash
    }
}

/// One open span on this thread's stack.
struct SpanFrame {
    name: &'static str,
    id: u64,
    /// Direct children opened so far — the child sequence counter.
    children: u64,
    /// The interned full path (inherited prefix included).
    path: Arc<str>,
}

/// An interned span path and the registry slot its closes record into.
struct Interned {
    path: Arc<str>,
    slot: usize,
    /// Keeps the parent path alive, so its address — part of the key —
    /// cannot be reused by another path while the entry exists.
    _parent: Option<Arc<str>>,
}

/// `(parent path address, name address, name length)`: a static name's
/// address and length identify its text. The compiler may keep more than
/// one copy of a literal (one per codegen unit a call site lands in); each
/// copy gets its own entry, all sharing the path's one slot.
type PathKey = (usize, usize, usize);

/// Interns the path of a span named `name` under `parent` on this thread,
/// returning it with its registry slot.
fn intern(parent: Option<&Arc<str>>, name: &'static str) -> (Arc<str>, usize) {
    let key = (
        parent.map_or(0, |p| Arc::as_ptr(p) as *const u8 as usize),
        name.as_ptr() as usize,
        name.len(),
    );
    PATHS.with(|paths| {
        if let Some(hit) = paths.borrow().get(&key) {
            return (Arc::clone(&hit.path), hit.slot);
        }
        let (path, slot) = match parent {
            Some(p) => registry::span_slot(&format!("{p}/{name}")),
            None => registry::span_slot(name),
        };
        let interned = Interned {
            path: Arc::clone(&path),
            slot,
            _parent: parent.cloned(),
        };
        paths.borrow_mut().insert(key, interned);
        (path, slot)
    })
}

/// Inherited causal state installed by [`propagate_span_path`] /
/// [`propagate_causal_context`].
struct InheritedCtx {
    /// Path prefix spans opened under this context aggregate beneath.
    path: Option<Arc<str>>,
    /// Causal parent for first-level spans opened under this context.
    parent_id: u64,
    /// Sequence base for those first-level spans (item-indexed for pool
    /// items, 0 for the legacy path-only propagation).
    base_seq: u64,
    /// First-level spans opened under this context so far.
    opened: u64,
    /// Local stack frames below this install masked out of the causal
    /// parent lookup.
    mask_depth: usize,
    /// Local stack frames below this install that the context's `path`
    /// already covers — spans opened on top of them extend `path`.
    path_depth: usize,
}

thread_local! {
    /// The stack of open spans on this thread. Paths are the visible part
    /// of the stack joined with `/`, so nesting is tracked per thread while
    /// aggregation is global.
    static STACK: RefCell<Vec<SpanFrame>> = const { RefCell::new(Vec::new()) };
    /// Inherited causal context for spans opened on this thread — set by
    /// worker threads (and around pool work items) so their span trees and
    /// causal links merge under the spawning thread's open span.
    static CTX: RefCell<Option<InheritedCtx>> = const { RefCell::new(None) };
    /// Sequence numbers for spans opened with no parent and no context.
    static ROOT_SEQ: Cell<u64> = const { Cell::new(0) };
    /// Prefixes installed with [`propagate_span_path`], one copy each.
    static PREFIXES: RefCell<std::collections::HashSet<Arc<str>>> =
        RefCell::new(std::collections::HashSet::new());
    /// This thread's interned span paths.
    static PATHS: RefCell<HashMap<PathKey, Interned, BuildHasherDefault<WordHasher>>> =
        RefCell::new(HashMap::default());
}

fn visible_mask() -> usize {
    CTX.with(|ctx| ctx.borrow().as_ref().map_or(0, |c| c.mask_depth))
}

fn path_depth() -> usize {
    CTX.with(|ctx| ctx.borrow().as_ref().map_or(0, |c| c.path_depth))
}

/// The `/`-joined path of the innermost span currently open on this thread
/// (including any inherited prefix), or `None` outside every span.
///
/// Thread pools capture it, with the causal parent, through
/// [`current_causal_context`] and install it around each work item with
/// [`propagate_causal_context`], which is what keeps one `report()` span
/// tree across a fan-out.
pub fn current_span_path() -> Option<String> {
    current_path().map(|p| p.to_string())
}

/// The interned path of the innermost span visible on this thread.
fn current_path() -> Option<Arc<str>> {
    let mask = path_depth();
    let local = STACK.with(|stack| {
        let stack = stack.borrow();
        stack.iter().skip(mask).last().map(|f| Arc::clone(&f.path))
    });
    local.or_else(|| CTX.with(|ctx| ctx.borrow().as_ref().and_then(|c| c.path.clone())))
}

/// The causal ID of the innermost span visible on this thread (inherited
/// context included), or `0` outside every span.
pub fn current_span_id() -> u64 {
    let mask = visible_mask();
    let local = STACK.with(|stack| stack.borrow().iter().skip(mask).last().map(|f| f.id));
    match local {
        Some(id) => id,
        None => CTX.with(|ctx| ctx.borrow().as_ref().map_or(0, |c| c.parent_id)),
    }
}

/// A capture of the calling thread's span path and causal parent, taken on
/// the spawning side of a fan-out and installed around each work item with
/// [`propagate_causal_context`]. Cheap to clone (the path is shared).
#[derive(Clone, Debug)]
pub struct CausalContext {
    path: Option<Arc<str>>,
    parent_id: u64,
}

/// Captures the current span path + causal parent for propagation into
/// pool workers (see [`propagate_causal_context`]).
pub fn current_causal_context() -> CausalContext {
    CausalContext {
        path: current_path(),
        parent_id: current_span_id(),
    }
}

/// Installs `ctx` for one work item until the returned guard drops. Spans
/// opened while the guard lives aggregate under the captured path and are
/// causally parented to the captured span, with sequence numbers seeded by
/// `task_index` — which is what makes span IDs independent of which worker
/// (or the caller itself, inline) runs the item.
#[must_use = "the context is removed when the guard drops"]
pub fn propagate_causal_context(ctx: &CausalContext, task_index: u64) -> PropagatedPathGuard {
    let mask_depth = STACK.with(|stack| stack.borrow().len());
    install(InheritedCtx {
        path: ctx.path.clone(),
        parent_id: ctx.parent_id,
        base_seq: task_index.wrapping_add(1) << 32,
        opened: 0,
        mask_depth,
        path_depth: mask_depth,
    })
}

/// Installs `path` as this thread's span-path prefix until the returned
/// guard drops (restoring the previous prefix). Spans opened while the guard
/// lives aggregate under `path/...`, merging worker-thread span trees into
/// the spawning thread's tree.
///
/// Path-only propagation: spans opened under it carry no causal parent.
/// Fan-outs that want linked `span_id`/`parent_id` chains should use
/// [`propagate_causal_context`] instead.
#[must_use = "the prefix is removed when the guard drops"]
pub fn propagate_span_path(path: Option<String>) -> PropagatedPathGuard {
    // The prefix covers the spans already open here too: they nest under
    // it from now on, so it is folded into one path over the whole stack.
    let (path, path_depth) = STACK.with(|stack| {
        let stack = stack.borrow();
        let names: Vec<&str> = path
            .as_deref()
            .into_iter()
            .chain(stack.iter().map(|f| f.name))
            .collect();
        ((!names.is_empty()).then(|| names.join("/")), stack.len())
    });
    // One shared copy per distinct prefix, so repeated installs of the same
    // path reuse its interned children instead of adding new ones.
    let path = path.map(|p| {
        PREFIXES.with(|prefixes| {
            let mut prefixes = prefixes.borrow_mut();
            if let Some(known) = prefixes.get(p.as_str()) {
                return Arc::clone(known);
            }
            let p: Arc<str> = Arc::from(p);
            prefixes.insert(Arc::clone(&p));
            p
        })
    });
    install(InheritedCtx {
        path,
        parent_id: 0,
        base_seq: 0,
        opened: 0,
        mask_depth: 0,
        path_depth,
    })
}

fn install(ctx: InheritedCtx) -> PropagatedPathGuard {
    let previous = CTX.with(|cell| cell.borrow_mut().replace(ctx));
    PropagatedPathGuard { previous }
}

/// Guard returned by [`propagate_span_path`] / [`propagate_causal_context`];
/// restores the thread's previous context on drop.
pub struct PropagatedPathGuard {
    previous: Option<InheritedCtx>,
}

impl Drop for PropagatedPathGuard {
    fn drop(&mut self) {
        CTX.with(|cell| *cell.borrow_mut() = self.previous.take());
    }
}

/// Guard returned by [`crate::span`]; records the elapsed time (and, with
/// `HQNN_ALLOC=1`, the thread's allocation delta) under the span's full
/// path when dropped.
pub struct SpanGuard {
    path: Arc<str>,
    slot: usize,
    name: &'static str,
    id: u64,
    parent_id: u64,
    alloc_start: Option<crate::alloc::WindowStart>,
    start: Instant,
}

impl SpanGuard {
    pub(crate) fn enter(name: &'static str) -> SpanGuard {
        let (id, parent_id, (path, slot)) = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let mask = ctx.as_ref().map_or(0, |c| c.mask_depth).min(stack.len());
                let path_depth = ctx.as_ref().map_or(0, |c| c.path_depth).min(stack.len());
                let (parent_id, seq) = if stack.len() > mask {
                    let last = stack.len() - 1;
                    let top = &mut stack[last];
                    let seq = top.children;
                    top.children += 1;
                    (top.id, seq)
                } else if let Some(c) = ctx.as_mut() {
                    let seq = c.base_seq.wrapping_add(c.opened);
                    c.opened += 1;
                    (c.parent_id, seq)
                } else {
                    let seq = ROOT_SEQ.with(|r| {
                        let s = r.get();
                        r.set(s.wrapping_add(1));
                        s
                    });
                    (0, seq)
                };
                let id = derive_span_id(parent_id, name, seq);
                let parent = if stack.len() > path_depth {
                    stack.last().map(|f| &f.path)
                } else {
                    ctx.as_ref().and_then(|c| c.path.as_ref())
                };
                let interned = intern(parent, name);
                stack.push(SpanFrame {
                    name,
                    id,
                    children: 0,
                    path: Arc::clone(&interned.0),
                });
                (id, parent_id, interned)
            })
        });
        crate::trace::record(true, name, id, parent_id);
        // The allocation window opens *after* the guard's own bookkeeping
        // (frame push, path build, trace record) so a span's delta is the
        // workload's, not the instrumentation's.
        let alloc_start = crate::alloc::window_start();
        SpanGuard {
            path,
            slot,
            name,
            id,
            parent_id,
            alloc_start,
            start: Instant::now(),
        }
    }

    /// The full `/`-joined path of this span.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// This span's deterministic causal ID.
    pub fn span_id(&self) -> u64 {
        self.id
    }

    /// The causal ID of this span's parent (`0` for a root span).
    pub fn parent_span_id(&self) -> u64 {
        self.parent_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        // Close the allocation window before any drop-side bookkeeping
        // allocates (pop, registry, event) so the delta is workload-only.
        let alloc = self.alloc_start.take().map(crate::alloc::window_end);
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::trace::record(false, self.name, self.id, self.parent_id);
        let first = registry::record_span_local(self.slot, &self.path, elapsed, alloc);
        // Every occurrence is visible at debug level; below that, the first
        // completion per path still emits one event so recording sinks
        // (JSONL/memory) always capture an example of every span path
        // without drowning in per-sample records.
        if first || crate::enabled(Level::Debug) {
            let mut fields = vec![
                ("path", FieldValue::Str(self.path.to_string())),
                ("dur_us", FieldValue::U64(elapsed.as_micros() as u64)),
            ];
            if let Some(alloc) = alloc {
                fields.push(("alloc_count", FieldValue::U64(alloc.count)));
                fields.push(("alloc_bytes", FieldValue::U64(alloc.bytes)));
                fields.push(("peak_bytes", FieldValue::U64(alloc.peak_bytes)));
            }
            crate::emit(
                Level::Debug,
                "span",
                &fields,
                Some(self.id),
                (self.parent_id != 0).then_some(self.parent_id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn guard_exposes_path() {
        let a = crate::span("alpha");
        assert_eq!(a.path(), "alpha");
        let b = crate::span("beta");
        assert_eq!(b.path(), "alpha/beta");
    }

    #[test]
    fn propagated_prefix_nests_and_restores() {
        assert_eq!(super::current_span_path(), None);
        let outer = crate::span("outer");
        assert_eq!(super::current_span_path().as_deref(), Some("outer"));
        {
            let _g = super::propagate_span_path(Some("parent/worker".to_string()));
            assert_eq!(
                super::current_span_path().as_deref(),
                Some("parent/worker/outer")
            );
            let inner = crate::span("inner");
            assert_eq!(inner.path(), "parent/worker/outer/inner");
        }
        // Guard dropped: prefix restored.
        assert_eq!(super::current_span_path().as_deref(), Some("outer"));
        drop(outer);
        assert_eq!(super::current_span_path(), None);
    }

    #[test]
    fn ids_link_parent_and_child() {
        let a = crate::span("id_parent");
        let b = crate::span("id_child");
        assert_ne!(a.span_id(), 0);
        assert_ne!(b.span_id(), 0);
        assert_eq!(b.parent_span_id(), a.span_id());
        assert_eq!(super::current_span_id(), b.span_id());
        drop(b);
        assert_eq!(super::current_span_id(), a.span_id());
    }

    #[test]
    fn sibling_spans_of_same_name_get_distinct_ids() {
        let parent = crate::span("dup_parent");
        let first = {
            let g = crate::span("dup_child");
            g.span_id()
        };
        let second = {
            let g = crate::span("dup_child");
            g.span_id()
        };
        drop(parent);
        assert_ne!(
            first, second,
            "sequence numbers separate same-name siblings"
        );
    }

    #[test]
    fn propagated_context_masks_local_frames_and_links_parent() {
        let caller = crate::span("ctx_caller");
        let ctx = super::current_causal_context();
        {
            // Same thread (the inline par_map path): the caller's frame is
            // masked, so the item span's path is not doubled ...
            let _g = super::propagate_causal_context(&ctx, 3);
            let item = crate::span("ctx_item");
            assert_eq!(item.path(), "ctx_caller/ctx_item");
            // ... and its causal parent is the caller's span.
            assert_eq!(item.parent_span_id(), caller.span_id());
        }
        drop(caller);
    }

    #[test]
    fn item_ids_are_task_indexed_not_schedule_dependent() {
        let caller = crate::span("seq_caller");
        let ctx = super::current_causal_context();
        let id_for = |task: u64| {
            let _g = super::propagate_causal_context(&ctx, task);
            crate::span("seq_item").span_id()
        };
        // Re-running the same task index reproduces the same ID; different
        // indices differ.
        assert_eq!(id_for(5), id_for(5));
        assert_ne!(id_for(5), id_for(6));
        drop(caller);
    }
}
