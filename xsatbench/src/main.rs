//! `xsatbench --workload <table2|service-mix|edit-lint> --seed N
//! --seconds S --trace 0|1`: runs one workload and prints every metric,
//! then one JSON result line. Exits 2 on bad arguments and 3 when the run
//! is invalid (the open-loop generator fell behind its schedule). With the
//! internal `--setup-only 1` it prints only the median set-up time, in
//! seconds.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match xsatbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsatbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        println!("{:?}", xsatbench::setup_s(&args));
        return;
    }
    let rep = xsatbench::run(&args);
    if let Some(why) = &rep.invalid {
        for l in &rep.lines {
            eprintln!("{l}");
        }
        eprintln!("xsatbench: invalid run: {why}");
        std::process::exit(3);
    }
    rep.print();
}
