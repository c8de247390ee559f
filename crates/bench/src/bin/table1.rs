//! Table 1 reproduction: chip implementation overview.
//!
//! Die size, technology and frequency are the paper's constants (they
//! parameterise the impact model); the logic size is measured by the
//! gate-area model on the generated chip.

use veridic::prelude::*;

fn main() {
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Full,
        with_bugs: false,
    });
    let costs = CellCosts::default();
    let mut gates = 0.0;
    for mi in chip.modules() {
        let m = chip.design().module(mi.name()).unwrap();
        gates += module_area(m, &costs);
    }
    println!("Table 1. Chip implementation");
    println!("{:<18} Implementation", "Item");
    println!("{:<18} 12.8 x 12.5 mm2   (paper constant)", "Chip die size");
    println!(
        "{:<18} 0.11 um CMOS ASIC (paper constant; sets the cell model)",
        "Technology"
    );
    println!(
        "{:<18} {:.2}M gate-units (synthetic chip, gate-area model)",
        "Logic size",
        gates / 1.0e6
    );
    println!(
        "{:<18} 250MHz            (paper constant; sets the 4ns cycle)",
        "Core frequency"
    );
    println!();
    println!(
        "leaf modules: {} in 5 categories; checkpoint census: 2047 properties",
        chip.modules().len()
    );
    println!("(paper reports 3.5M gates; the synthetic chip reproduces the module/");
    println!(" checkpoint structure, with payload logic calibrated for Table 4 ratios)");
}
