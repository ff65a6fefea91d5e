//! `cfg(loom)`-switched synchronization primitives.
//!
//! Production builds re-export `std`; model-checking builds
//! (`RUSTFLAGS="--cfg loom"`) substitute the loom shim's instrumented
//! types so `tests/loom_models.rs` can explore every interleaving of the
//! row table's chunk publication, slot recycling and reclamation
//! protocols. The re-exports cover exactly what `rowtable.rs` and the
//! guard types in `shared.rs` need (they are `pub` because `RowSlot`
//! exposes `&AtomicU32`/`&AtomicBool` and lock guards in its API);
//! `PoisonError` stays on `std` in both configurations — the shim's lock
//! results use the real type.

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
