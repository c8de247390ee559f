//! Quickstart: the whole methodology on one leaf module.
//!
//! Builds a Figure-1-style leaf module, applies the Verifiable-RTL
//! transform (Fig. 6), generates the three stereotype PSL vunits
//! (Figs. 2–4), and model checks every property.
//!
//! Run with: `cargo run --example quickstart`

use veridic::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A leaf module from the generator: FSMs, counters and datapath
    // registers, all parity-protected, plus checkers and an HE report.
    let plan = &build_plans(Scale::Small)[0];
    let module = build_leaf(plan, None);
    println!("=== leaf module: {} ===", module.name);
    println!(
        "  {} entities, {} input groups, {} output groups, HE[{}]",
        plan.entities, plan.in_groups, plan.out_groups, plan.he_bits
    );

    // The Verifiable-RTL transform: one injection selector per entity.
    let vm = make_verifiable(&module)?;
    println!(
        "\n=== Verifiable RTL ===\n  added {}[{}] and {}[{}]",
        EC_PORT, vm.entity_count, ED_PORT, vm.ed_width
    );

    // The three stereotype vunits, as PSL source.
    println!("\n=== generated PSL (Figure 2 style) ===");
    print!("{}", edetect_vunit(&vm));

    // Compile and check everything.
    let vunits = generate_all(&vm)?;
    // The builder form: identical to `CheckOptions::default()` here,
    // but new knobs can be added without breaking this call site.
    let opts = CheckOptions::builder().build();
    let portfolio = Portfolio::default();
    let mut proved = 0usize;
    let mut total = 0usize;
    for (genu, compiled) in &vunits {
        let lowered = compiled.module.to_aig()?;
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        for (idx, (label, _)) in compiled.asserts.iter().enumerate() {
            let mut stats = CheckStats::default();
            let verdict = portfolio.check_bad(&aig, idx, &opts, &mut stats);
            total += 1;
            let tag = match &verdict {
                Verdict::Proved { engine } => {
                    proved += 1;
                    format!("proved ({engine})")
                }
                Verdict::Falsified(t) => format!("FALSIFIED in {} cycles", t.len()),
                Verdict::ResourceOut { reason } => format!("resource-out: {reason}"),
            };
            println!("  [{}] {label}: {tag}", genu.unit.name);
        }
    }
    println!("\n{proved}/{total} properties proved.");
    Ok(())
}
