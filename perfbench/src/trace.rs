//! In-memory span recorder with thread-attributed allocation counts.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each crate's public functions (the library stays clock-free). A
//! span keeps its layer, name, start/end offsets, the recording thread and
//! the number of heap allocations that thread made inside it. Allocation
//! counters are thread-local, so executor workers running concurrently
//! never leak into another span's count. Spans stay in memory and are
//! written out once, when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// The system allocator, counting allocations per thread.
pub struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn count_allocation(bytes: usize) {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    grow(bytes);
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// High-water mark of live heap bytes since the process started.
///
/// Unlike the resident set, it does not depend on how the system
/// allocator spreads threads over its arenas, so it repeats from run to
/// run.
pub fn peak_heap_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// SAFETY: every method forwards unchanged to the system allocator; the
// only additions are a thread-local counter bump and atomic byte counts,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// A small, stable identifier of the calling thread.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Workspace crate the call went into (`nn`, `defense`, ...).
    pub layer: &'static str,
    /// Span name within the layer (`fit`, `audit.strip`, ...).
    pub name: String,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
    /// Recording thread.
    pub thread: u64,
    /// Heap allocations the recording thread made inside the span.
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// Whether this span's key (`layer.name`) equals `key`.
    pub fn is(&self, layer: &str, name: &str) -> bool {
        self.layer == layer && self.name == name
    }
}

/// Span recorder. It records only while switched on (a traced run keeps
/// it off during the untraced round it compares against); off, a span
/// costs one branch.
pub struct Tracer {
    enabled: bool,
    recording: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            recording: AtomicBool::new(false),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (never on in an untraced run).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on && self.enabled, Ordering::Relaxed);
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span `layer.name` (when recording).
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.recording() {
            return f();
        }
        let allocs = thread_allocations();
        let start = self.now();
        let out = f();
        let end = self.now();
        let span = Span {
            layer,
            name: name.to_string(),
            start,
            end,
            thread: thread_id(),
            allocs: thread_allocations() - allocs,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"thread\":{},\"allocs\":{}}}",
                s.layer, s.name, s.start, s.end, s.thread, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals` (unsorted, possibly overlapping).
pub fn union_secs(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of each span: its duration minus the part of it covered by
/// spans that start and end inside it (its children, on any thread).
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, parent)| {
            let children: Vec<(f64, f64)> = spans
                .iter()
                .enumerate()
                .filter(|&(j, c)| {
                    j != i
                        && c.start >= parent.start
                        && c.end <= parent.end
                        && c.secs() < parent.secs()
                })
                .map(|(_, c)| (c.start, c.end))
                .collect();
            parent.secs() - union_secs(children)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let u = union_secs(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]);
        assert!((u - 3.0).abs() < 1e-12);
        assert_eq!(union_secs(Vec::new()), 0.0);
    }

    #[test]
    fn allocation_counts_are_thread_local() {
        let tracer = Tracer::new(true);
        tracer.set_recording(true);
        tracer.span("nn", "outer", || {
            // Allocations on another thread do not count here.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let v: Vec<Vec<u8>> = (0..100).map(|_| vec![1u8; 16]).collect();
                    std::hint::black_box(v);
                });
            });
        });
        let local = tracer.span("nn", "local", || {
            let v: Vec<Vec<u8>> = (0..100).map(|_| vec![1u8; 16]).collect();
            std::hint::black_box(v).len()
        });
        assert_eq!(local, 100);
        let spans = tracer.spans();
        assert!(spans[0].allocs < 100, "outer span saw {}", spans[0].allocs);
        assert!(spans[1].allocs >= 100);
    }
}
