//! `benchkit` — the command-line entry point.
//!
//! See `benchkit help` (or `benchkit::cli::USAGE`) for the grammar; all
//! logic lives in `benchkit::cli` where it is unit-tested. This is the one
//! place the process environment is read: once, into a `cli::Env`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A variable whose name or value is not UTF-8 reads as unset.
    let vars = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)));
    let env = benchkit::cli::Env::from_vars(vars);
    let cmd = match benchkit::cli::parse(&args, &env) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", benchkit::cli::USAGE);
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout();
    if let Err(e) = benchkit::cli::execute(cmd, &env, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
