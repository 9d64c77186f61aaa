//! Spell suggestion with an online similarity-search index — the
//! "approximate string searching" companion problem from the paper's
//! related work, served by the same partition machinery.
//!
//! Builds a dictionary index once, then answers point queries: all
//! dictionary words within τ of each misspelling, ranked by distance.
//!
//! ```sh
//! cargo run --release --example spell_suggest
//! ```

use passjoin_online::{OnlineIndex, Queryable};

fn main() {
    let dictionary: Vec<&str> = vec![
        "similarity",
        "similarly",
        "simulation",
        "partition",
        "petition",
        "position",
        "permutation",
        "verification",
        "verifications",
        "notification",
        "segment",
        "argument",
        "alignment",
        "assignment",
        "threshold",
        "thresholds",
        "inverted",
        "inverse",
        "index",
        "indices",
    ];
    let tau = 2;
    let index = OnlineIndex::from_strings(&dictionary, tau);
    println!(
        "dictionary of {} words indexed ({} bytes) at tau={tau}\n",
        dictionary.len(),
        index.stats().resident_bytes
    );

    for query in [
        "similarty",
        "partitoin",
        "verfication",
        "treshold",
        "alinement",
        "zzzzz",
    ] {
        let mut hits = index.matches(query.as_bytes(), tau);
        hits.sort_by_key(|&(id, d)| (d, id));
        let suggestions: Vec<String> = hits
            .iter()
            .map(|&(id, d)| format!("{} (d={d})", dictionary[id as usize]))
            .collect();
        println!(
            "{query:<14} -> {}",
            if suggestions.is_empty() {
                "no suggestion".to_string()
            } else {
                suggestions.join(", ")
            }
        );
    }
}
