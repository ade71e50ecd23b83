//! Error-correcting codes for the ReadDuo reproduction.
//!
//! The paper attaches a **BCH-E** code to each 512-bit memory line: a binary
//! BCH code over GF(2^10) correcting up to `E` bit errors. ReadDuo's key
//! trick (Section III-B) *decouples error detection from correction*: a
//! BCH code with designed distance `d = 2t+1` corrects up to `t` errors but
//! can **detect** up to `2t` — ReadDuo uses the full detection capability to
//! decide when an R-read must be retried as an M-read.
//!
//! This crate provides:
//!
//! * [`gf`] — arithmetic in GF(2^m) with log/antilog tables,
//! * [`poly`] — binary polynomials (generator construction, LFSR division),
//! * [`bch`] — the full codec: systematic encoding, syndrome computation,
//!   Berlekamp–Massey, Chien search, and the detect/correct decoupling,
//! * [`secded`] — Hamming (72,64) SECDED for the TLC baseline,
//! * [`parity`] — interleaved parity used alongside BCH in the Scrubbing
//!   baseline's storage layout.
//!
//! # Example
//!
//! ```
//! use readduo_ecc::{Bch, DecodeOutcome};
//!
//! // BCH-8 over GF(2^10) protecting 512 data bits, as in the paper.
//! let code = Bch::new(10, 8, 512);
//! assert_eq!(code.parity_bits(), 80);
//!
//! let data = vec![0xABu8; 64];
//! let mut cw = code.encode(&data);
//! cw.flip(3);
//! cw.flip(77);
//! cw.flip(500);
//! match code.decode(&mut cw) {
//!     DecodeOutcome::Corrected(n) => assert_eq!(n, 3),
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! assert_eq!(code.extract_data(&cw), data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bch;
pub mod bitvec;
pub mod gf;
pub mod parity;
pub mod poly;
pub mod secded;

pub use bch::{Bch, DecodeOutcome, PatternOutcome};
pub use bitvec::BitVec;
pub use gf::GfField;
pub use parity::InterleavedParity;
pub use poly::BinPoly;
pub use secded::Secded;
