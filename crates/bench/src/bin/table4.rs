//! Table 4 reproduction: area increase caused by the error injection
//! feature, per module category (gate-area model over the full chip).

use veridic::prelude::*;

fn main() {
    eprintln!("generating the full-scale chip ...");
    let chip = Chip::generate(&ChipConfig {
        scale: Scale::Full,
        with_bugs: false,
    });
    let rows = area_report(&chip, &CellCosts::default());
    print!("{}", render_table4(&rows));
    println!();
    println!("(paper reports A: 1.4%, B: 0.4%, D: 0.2% — C and E were not listed)");
    println!("per-module spread:");
    let per_cat = category_increase(&rows);
    for (cat, _) in per_cat {
        let mut incs: Vec<f64> = rows
            .iter()
            .filter(|r| r.category == cat)
            .map(|r| r.increase_percent())
            .collect();
        incs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "  {}: min {:.2}%  median {:.2}%  max {:.2}%  ({} modules)",
            cat,
            incs.first().unwrap(),
            incs[incs.len() / 2],
            incs.last().unwrap(),
            incs.len()
        );
    }
}
