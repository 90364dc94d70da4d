//! Compiles the carbon-bond table into straight-line production/loss
//! kernels (`$OUT_DIR/carbon_bond_kernels.rs`, included by
//! `src/mechanism.rs`).
//!
//! The table, the species indices it is written in and the generator are
//! the crate's own source files, compiled into this script as modules, so
//! the rows the kernels come from are the rows `Mechanism::carbon_bond()`
//! is built from — there is no parser and no second copy. Std-only and
//! deterministic: the same sources give the same bytes.

use std::path::PathBuf;

#[allow(dead_code)] // the script uses the indices and `N_SPECIES` only
#[path = "src/species.rs"]
mod species;

#[allow(dead_code)] // rate laws are evaluated at run time, not here
#[path = "src/mechanism/table.rs"]
mod table;

#[path = "src/mechanism/codegen.rs"]
mod codegen;

fn main() {
    for src in [
        "build.rs",
        "src/species.rs",
        "src/mechanism/table.rs",
        "src/mechanism/codegen.rs",
    ] {
        println!("cargo:rerun-if-changed={src}");
    }
    let kernels = codegen::generate(&table::carbon_bond_table(), species::N_SPECIES)
        .unwrap_or_else(|e| panic!("carbon-bond table cannot be compiled: {e}"));
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    std::fs::write(out.join("carbon_bond_kernels.rs"), kernels)
        .expect("write the generated kernels to OUT_DIR");
}
