//! `flowzip-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

#[global_allocator]
static ALLOC: flowzip_perfbench::alloc::CountingAlloc = flowzip_perfbench::alloc::CountingAlloc;

fn main() {
    flowzip_perfbench::sys::pin_malloc_thresholds();
    let args = match flowzip_perfbench::run::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowzip-perfbench: {e}");
            eprintln!("{}", flowzip_perfbench::run::USAGE);
            std::process::exit(2);
        }
    };
    match flowzip_perfbench::run::run(&args) {
        Ok(out) => {
            eprint!("{}", out.table());
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("flowzip-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
