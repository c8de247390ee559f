//! Figure 6: the Verifiable-RTL transform, shown as Verilog.
//!
//! Parses a hand-written leaf module (the paper's Figure-6 shape),
//! elaborates it, applies the injection transform, and emits the
//! resulting Verilog — wrapper tie-offs included.
//!
//! Run with: `cargo run --example verifiable_rtl`

use veridic::prelude::*;

const LEAF: &str = r#"
module B (
  input CK,
  input RESET,
  input [3:0] I,
  output HE,
  output [3:0] O
);
  reg [3:0] cs;
  reg in_chk_q;
  always @(posedge CK or posedge RESET)
    if (RESET) cs <= 4'b1_000;
    else cs <= {~(^(cs[2:0] + 3'b001)), cs[2:0] + 3'b001};
  always @(posedge CK or posedge RESET)
    if (RESET) in_chk_q <= 1'b0;
    else in_chk_q <= ~(^I);
  assign HE = ~(^cs) | in_chk_q;
  assign O = cs ^ I ^ 4'b0001;
endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== designer-released RTL ===");
    println!("{LEAF}");
    let ast = parse(LEAF)?;
    let design = elaborate(&ast, "B")?;
    let mut module = design.module("B").expect("module B").clone();

    // Attach the integrity specification (normally carried as attributes
    // by the generator; here added by hand, playing the designer's role
    // of "releasing the specification of data integrity").
    let cs = module.find_net("cs").expect("cs");
    module
        .net_mut(cs)
        .attrs
        .insert("checkpoint.kind".into(), "entity".into());
    module
        .net_mut(cs)
        .attrs
        .insert("checkpoint.entity_kind".into(), "fsm".into());
    module
        .net_mut(cs)
        .attrs
        .insert("checkpoint.he_bit".into(), "0".into());
    let i = module.find_net("I").expect("I");
    module
        .net_mut(i)
        .attrs
        .insert("checkpoint.kind".into(), "input_group".into());
    module
        .net_mut(i)
        .attrs
        .insert("checkpoint.he_bit".into(), "0".into());
    let o = module.find_net("O").expect("O");
    module
        .net_mut(o)
        .attrs
        .insert("checkpoint.kind".into(), "output_group".into());
    let he = module.find_net("HE").expect("HE");
    module
        .net_mut(he)
        .attrs
        .insert("checkpoint.kind".into(), "he".into());

    let vm = make_verifiable(&module)?;
    println!("=== Verifiable RTL (transform output) ===");
    println!("{}", emit_module(&vm.module, None));

    println!("=== generated stereotype vunits ===");
    print!("{}", edetect_vunit(&vm));
    print!("{}", soundness_vunit(&vm));
    print!("{}", integrity_vunit(&vm));

    // And verify them on the spot.
    let vunits = generate_all(&vm)?;
    let portfolio = Portfolio::default();
    let mut proved = 0;
    let mut total = 0;
    for (_g, compiled) in &vunits {
        let lowered = compiled.module.to_aig()?;
        let mut aig = lowered.aig.clone();
        for (label, net) in &compiled.asserts {
            aig.add_bad(label.clone(), lowered.bit(*net, 0));
        }
        for (label, net) in &compiled.assumes {
            aig.add_constraint(label.clone(), !lowered.bit(*net, 0));
        }
        for idx in 0..compiled.asserts.len() {
            let mut stats = CheckStats::default();
            total += 1;
            if portfolio
                .check_bad(&aig, idx, &CheckOptions::default(), &mut stats)
                .is_proved()
            {
                proved += 1;
            }
        }
    }
    println!("\n{proved}/{total} properties proved on the hand-written module.");
    Ok(())
}
