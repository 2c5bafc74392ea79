//! The leakage-bandwidth matrix is a pure function of its cells: the
//! full sweep — 3 channel families × 4 geometries × 3 epoch lengths ×
//! {commodity, S-NIC} — measures byte-identically with every spare
//! thread of the budget held (serial) and with the pool free
//! (parallel). Its text and security bounds are the `leakage` entry of
//! `snicctl exp`, pinned by the registry's golden test.

use snic::leakage::LeakageMatrix;
use snic::uarch::budget::Threads;

#[test]
fn full_matrix_is_serial_parallel_identical() {
    let held = Threads::take(usize::MAX);
    let serial = LeakageMatrix::measure();
    drop(held);
    let parallel = LeakageMatrix::measure();
    assert_eq!(serial.cells.len(), 72);
    assert_eq!(
        serial.render(),
        parallel.render(),
        "the matrix must be byte-identical serial vs parallel"
    );
}
