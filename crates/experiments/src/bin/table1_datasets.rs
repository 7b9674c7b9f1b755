//! Table 1 — dataset statistics.
//!
//! Builds every dataset proxy and prints its node/edge counts next to the
//! counts Table 1 reports for the real dataset it stands in for. At demo
//! scale the proxies are intentionally smaller; the point of this binary is
//! to show what each experiment runs on and how it maps to the paper.

use snr_experiments::datasets::{
    affiliation_like, dblp_like, enron_like, facebook_like, gowalla_like, pa_dataset, rmat_like,
    table1_reference, wikipedia_like, Scale,
};
use snr_experiments::ExperimentArgs;
use snr_graph::GraphStats;
use snr_metrics::{ExperimentRecord, MeasuredRow, TextTable};

fn main() {
    let args = ExperimentArgs::from_env();
    snr_telemetry::init_from_env();
    let scale = Scale::from_full_flag(args.full);
    let seed = args.seed;

    println!("Table 1 — dataset statistics (proxy vs paper)\n");
    let mut table =
        TextTable::new(["dataset", "proxy nodes", "proxy edges", "paper nodes", "paper edges"]);
    let mut record = ExperimentRecord::new("table1_datasets", "Table 1")
        .parameter("scale", format!("{scale:?}"))
        .parameter("seed", seed.to_string());

    let mut add = |name: &str, stats: GraphStats, paper_nodes: u64, paper_edges: u64| {
        table.row([
            name.to_string(),
            stats.nodes.to_string(),
            stats.edges.to_string(),
            paper_nodes.to_string(),
            paper_edges.to_string(),
        ]);
        record.push_row(
            MeasuredRow::new(name)
                .value("nodes", stats.nodes as f64)
                .value("edges", stats.edges as f64)
                .value("max_degree", stats.max_degree as f64)
                .paper_value("nodes", paper_nodes as f64)
                .paper_value("edges", paper_edges as f64),
        );
    };

    let reference = table1_reference();
    let lookup = |name: &str| {
        reference.iter().find(|(n, _, _)| *n == name).map(|&(_, n, e)| (n, e)).unwrap_or((0, 0))
    };

    let pa = pa_dataset(scale, seed);
    let (n, e) = lookup("PA");
    add("PA", pa.stats(), n, e);

    // R-MAT instances: the paper's exponents are 24/26/28; we report the
    // scaled exponents actually generated.
    let rmat_exponents = if args.full { [18u32, 20, 22] } else { [13, 14, 15] };
    for (exp, name) in rmat_exponents.iter().zip(["RMAT24", "RMAT26", "RMAT28"]) {
        let g = rmat_like(*exp, seed);
        let (n, e) = lookup(name);
        add(name, GraphStats::compute(&g), n, e);
    }

    let an = affiliation_like(scale, seed);
    let (n, e) = lookup("AN");
    add("AN", GraphStats::compute(&an.graph), n, e);

    let fb = facebook_like(scale, seed);
    let (n, e) = lookup("Facebook");
    add("Facebook", fb.stats(), n, e);

    let dblp = dblp_like(scale, seed).flatten();
    let (n, e) = lookup("DBLP");
    add("DBLP", GraphStats::compute(&dblp), n, e);

    let enron = enron_like(scale, seed);
    let (n, e) = lookup("Enron");
    add("Enron", enron.stats(), n, e);

    let gowalla = gowalla_like(scale, seed).flatten();
    let (n, e) = lookup("Gowalla");
    add("Gowalla", GraphStats::compute(&gowalla), n, e);

    let wiki = wikipedia_like(scale, seed);
    let (n, e) = lookup("French Wikipedia");
    add("French Wikipedia", GraphStats::compute(&wiki.g1), n, e);
    let (n, e) = lookup("German Wikipedia");
    add("German Wikipedia", GraphStats::compute(&wiki.g2), n, e);

    println!("{table}");
    println!("Proxies are synthetic stand-ins generated offline; see snr_experiments::datasets.");
    args.maybe_write_json(&record);
    args.maybe_write_trace();
}
