//! Regenerates the paper's evaluation figures (§7, Figures 9–17): each as
//! a text table followed by the paper's claims and our verdict on each,
//! or with `--json` as one JSON line. `--smoke` shrinks trial counts;
//! figure numbers (`09` … `17`) pick figures, none means all nine.

fn main() {
    let args = lucid_bench::Args::parse(std::env::args().skip(1)).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    for fig in args.figures() {
        println!("{}", if args.json { fig.json() } else { fig.text() });
    }
}
