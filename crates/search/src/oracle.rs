//! Reference implementation: unconstrained in-RAM TF-IDF search.
//!
//! This is exactly the "classical" algorithm the tutorial shows *cannot*
//! run on the token ("one container is allocated per retrieved docid …
//! too much!"). It serves two purposes: the correctness oracle for the
//! embedded engine (results must match bit-for-bit on ranking), and the
//! RAM-consumption baseline of experiment E3.

use std::collections::HashMap;

use crate::engine::SearchHit;
use crate::tokenize::{term_hash, tokenize};
use crate::triple::DocId;

/// Naive in-memory inverted index + scorer.
#[derive(Default)]
pub struct NaiveSearch {
    /// term → (docid, tf) postings.
    postings: HashMap<u64, Vec<(DocId, u16)>>,
    /// Live documents: the `|{doc}|` of the TF-IDF formula.
    num_docs: u32,
    /// Documents ever indexed: docids are dense and never reused.
    next_doc: DocId,
}

impl NaiveSearch {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live documents.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// Index one document, returning its docid.
    pub fn index(&mut self, text: &str) -> DocId {
        let doc = self.next_doc;
        self.next_doc += 1;
        self.num_docs += 1;
        let mut tf: HashMap<u64, u16> = HashMap::new();
        for tok in tokenize(text) {
            let e = tf.entry(term_hash(&tok)).or_insert(0);
            *e = e.saturating_add(1);
        }
        for (term, count) in tf {
            self.postings.entry(term).or_default().push((doc, count));
        }
        doc
    }

    /// TF-IDF top-`n`: allocates one accumulator per candidate document —
    /// the RAM pattern the embedded engine exists to avoid.
    pub fn search(&self, keywords: &[&str], n: usize) -> Vec<SearchHit> {
        let mut terms: Vec<u64> = keywords
            .iter()
            .flat_map(|kw| tokenize(kw))
            .map(|t| term_hash(&t))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for term in terms {
            let Some(list) = self.postings.get(&term) else {
                continue;
            };
            let idf = (self.num_docs as f64 / list.len() as f64).ln();
            for &(doc, tf) in list {
                *scores.entry(doc).or_insert(0.0) += tf as f64 * idf;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(doc, score)| SearchHit { doc, score })
            .collect();
        // Same total order as the embedded engine: score desc, docid desc.
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(b.doc.cmp(&a.doc)));
        hits.truncate(n);
        hits
    }

    /// Document frequency of a term hash: the live documents holding it.
    pub fn df(&self, term: u64) -> u32 {
        self.postings.get(&term).map_or(0, Vec::len) as u32
    }

    /// Delete a document (the oracle mirror of
    /// `SearchEngine::delete_document`).
    pub fn delete(&mut self, doc: DocId) {
        for list in self.postings.values_mut() {
            list.retain(|(d, _)| *d != doc);
        }
        self.postings.retain(|_, list| !list.is_empty());
        // num_docs counts live docs for idf, matching the engine.
        self.num_docs = self.num_docs.saturating_sub(1);
    }

    /// Conjunctive top-`n`: only documents containing every keyword.
    pub fn search_all(&self, keywords: &[&str], n: usize) -> Vec<SearchHit> {
        let mut terms: Vec<u64> = keywords
            .iter()
            .flat_map(|kw| tokenize(kw))
            .map(|t| term_hash(&t))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        let required = terms.len();
        let mut scores: HashMap<DocId, (f64, usize)> = HashMap::new();
        for term in terms {
            let Some(list) = self.postings.get(&term) else {
                return Vec::new(); // missing keyword ⇒ empty conjunction
            };
            let idf = (self.num_docs as f64 / list.len() as f64).ln();
            for &(doc, tf) in list {
                let e = scores.entry(doc).or_insert((0.0, 0));
                e.0 += tf as f64 * idf;
                e.1 += 1;
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .filter(|(_, (_, matched))| *matched == required)
            .map(|(doc, (score, _))| SearchHit { doc, score })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(b.doc.cmp(&a.doc)));
        hits.truncate(n);
        hits
    }

    /// Peak accumulator count of a query — the "RAM containers" the
    /// tutorial's slide calls out. Used by the E3 bench.
    pub fn accumulators_for(&self, keywords: &[&str]) -> usize {
        let mut docs: Vec<DocId> = keywords
            .iter()
            .flat_map(|kw| tokenize(kw))
            .filter_map(|t| self.postings.get(&term_hash(&t)))
            .flatten()
            .map(|&(d, _)| d)
            .collect();
        docs.sort_unstable();
        docs.dedup();
        docs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_by_tfidf() {
        let mut s = NaiveSearch::new();
        s.index("rare rare rare");
        s.index("common word");
        s.index("common rare");
        let hits = s.search(&["rare"], 3);
        assert_eq!(hits[0].doc, 0, "tf=3 wins");
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn idf_discounts_ubiquitous_terms() {
        let mut s = NaiveSearch::new();
        for _ in 0..4 {
            s.index("everywhere filler");
        }
        let hits = s.search(&["everywhere"], 10);
        // df == num_docs ⇒ idf = ln(1) = 0 ⇒ zero scores.
        assert!(hits.iter().all(|h| h.score == 0.0));
    }

    #[test]
    fn accumulator_count_is_union_of_postings() {
        let mut s = NaiveSearch::new();
        s.index("alpha beta");
        s.index("alpha");
        s.index("gamma");
        assert_eq!(s.accumulators_for(&["alpha", "gamma"]), 3);
        assert_eq!(s.accumulators_for(&["beta"]), 1);
        assert_eq!(s.accumulators_for(&["nothing"]), 0);
    }
}
