//! # tfgc-runtime — heap and value encodings
//!
//! The machine substrate under both collectors: a semispace copying heap
//! over raw 64-bit words, plus the two value encodings the paper compares
//! — tag-free (headerless objects, full-width integers) and the tagged ML
//! baseline (low-bit tags, one header word per object).
//!
//! ```
//! use tfgc_runtime::{Encoding, Heap, HeapMode};
//!
//! let mut heap = Heap::new(1024);
//! let enc = Encoding::new(HeapMode::TagFree);
//! let cell = heap.alloc(2).expect("fits");
//! heap.write(cell, 0, enc.int(42));
//! assert_eq!(enc.int_of(heap.read(cell, 0)), 42);
//! ```

pub mod encode;
pub mod heap;
pub mod stats;
pub mod word;

pub use encode::{ArithKind, Encoding};
pub use heap::{Heap, COMMIT_CHUNK, MAX_SPACE_WORDS, NURSERY_BASE, SPACE_B_BASE};
pub use stats::{HeapStats, OccupancySample};
pub use word::{Addr, HeapMode, Word, HEAP_BASE};
