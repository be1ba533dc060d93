//! IVF-flat index over MegaMmap vectors.
//!
//! The index splits into a small *hot* structure and a large *cold* one,
//! and places each deliberately (the DRust observation: keep the index
//! structure resident, let the payload page):
//!
//! * hot — the coarse quantizer's `nlist * dim` centroids (host memory),
//!   the per-list offsets and id map, and, on the PQ path, the `m`-byte
//!   codes in an [`TenantClass::Interactive`] mm vector whose scache
//!   bucket holds retention priority over everything else;
//! * cold — the full-precision vectors, grouped by posting list in a
//!   [`TenantClass::Background`] mm vector that pages through the DMSH
//!   and is demoted to the capacity tiers first.
//!
//! Flat search scans whole posting lists under `Seq`-kind read
//! transactions, so misses coalesce into ranged `read_pages` fetches;
//! PQ re-ranking touches single vectors under a `Random`-hinted
//! transaction, which zeroes the prefetch window and skips score
//! bookkeeping on every miss.

use std::sync::Arc;

use megammap::prelude::*;
use megammap_cluster::Proc;
use megammap_workloads::vecgen::VecDataset;

use crate::kernels;
use crate::pq::{kmeans, PqCodebook, PqParams};

/// Index construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct IvfParams {
    /// Posting lists (coarse centroids).
    pub nlist: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// Coarse k-means Lloyd iterations.
    pub train_iters: usize,
    /// Training / grouping seed.
    pub seed: u64,
    /// Product-quantization parameters (the PQ path trains a codebook).
    pub pq: Option<PqParams>,
    /// Candidates re-ranked from full precision on the PQ path.
    pub rerank: usize,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 32,
            nprobe: 8,
            train_iters: 8,
            seed: 42,
            pq: Some(PqParams::default()),
            rerank: 96,
        }
    }
}

/// The trained, runtime-independent part of an index: centroids, grouping
/// and codes. Train once, publish into any number of runtimes.
pub struct IvfModel {
    /// Dimensionality.
    pub dim: usize,
    /// The parameters it was trained with.
    pub params: IvfParams,
    /// `nlist * dim` coarse centroids (hot, host-resident).
    pub centroids: Vec<f32>,
    /// Element offset (in f32 elements) of each list in the postings.
    pub list_off: Vec<u64>,
    /// Vectors per list.
    pub list_len: Vec<u64>,
    /// Corpus id per grouped position (hot, 4 B per vector).
    pub ids: Vec<u32>,
    /// Row-major vectors in grouped (list) order — what gets published.
    grouped: Vec<f32>,
    /// `m` bytes per vector in grouped order (PQ path only).
    codes: Vec<u8>,
    /// Trained codebook (PQ path only).
    pub pq: Option<PqCodebook>,
}

impl IvfModel {
    /// Train the coarse quantizer, group the corpus by list, and (when
    /// configured) train the residual PQ codebook and encode every vector.
    pub fn train(ds: &VecDataset, params: IvfParams) -> Self {
        let dim = ds.dim;
        let n = ds.len();
        let centroids = kmeans(&ds.data, dim, params.nlist, params.train_iters, params.seed);
        let assign: Vec<usize> = (0..n)
            .map(|i| {
                let mut best = (f32::INFINITY, 0usize);
                for c in 0..params.nlist {
                    let d = kernels::l2(ds.row(i), &centroids[c * dim..(c + 1) * dim]);
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                best.1
            })
            .collect();
        let mut list_len = vec![0u64; params.nlist];
        for &c in &assign {
            list_len[c] += 1;
        }
        let mut list_off = vec![0u64; params.nlist];
        let mut acc = 0u64;
        for c in 0..params.nlist {
            list_off[c] = acc * dim as u64;
            acc += list_len[c];
        }
        let mut cursor: Vec<u64> = list_off.iter().map(|o| o / dim as u64).collect();
        let mut ids = vec![0u32; n];
        let mut grouped = vec![0f32; n * dim];
        let mut residuals = vec![0f32; n * dim];
        for (i, &c) in assign.iter().enumerate() {
            let pos = cursor[c] as usize;
            cursor[c] += 1;
            ids[pos] = i as u32;
            grouped[pos * dim..(pos + 1) * dim].copy_from_slice(ds.row(i));
            for d in 0..dim {
                residuals[pos * dim + d] = ds.row(i)[d] - centroids[c * dim + d];
            }
        }
        let (pq, codes) = match params.pq {
            Some(pq_params) => {
                let cb = PqCodebook::train(&residuals, dim, pq_params, params.seed ^ 0x9E37_79B9);
                let mut codes = vec![0u8; n * pq_params.m];
                for pos in 0..n {
                    cb.encode_into(
                        &residuals[pos * dim..(pos + 1) * dim],
                        &mut codes[pos * pq_params.m..(pos + 1) * pq_params.m],
                    );
                }
                (Some(cb), codes)
            }
            None => (None, Vec::new()),
        };
        Self { dim, params, centroids, list_off, list_len, ids, grouped, codes, pq }
    }

    /// Total vectors indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the model is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Per-handle pcache caps for the serving side of an index.
#[derive(Debug, Clone, Copy)]
pub struct ServingCaps {
    /// pcache bytes for the full-precision postings (the sweep knob).
    pub postings_pcache: u64,
    /// pcache bytes for the PQ codes (the hot-tier budget).
    pub codes_pcache: u64,
}

/// A published index: serving handles over the model's mm vectors.
pub struct IvfIndex {
    model: Arc<IvfModel>,
    postings: MmVec<f32>,
    codes: Option<MmVec<u8>>,
}

const BUDGET_UNBOUNDED: u64 = 1 << 40;

impl IvfIndex {
    /// Write the model's postings (and codes) into the runtime under
    /// `tag`, registering the two placement tenants: codes are
    /// Interactive (retention priority holds them in the fast tier),
    /// postings are Background (demoted to capacity tiers first).
    pub fn publish(
        rt: &Runtime,
        p: &Proc,
        tag: &str,
        model: &Arc<IvfModel>,
        page_size: u64,
    ) -> Result<(), MmError> {
        let n = model.len() as u64;
        let dim = model.dim as u64;
        let postings_tid = rt.tenants().register(
            "ann-postings",
            TenantClass::Background,
            BUDGET_UNBOUNDED,
            BUDGET_UNBOUNDED,
        );
        let v: MmVec<f32> = MmVec::open(
            rt,
            p,
            &format!("mem://ann/{tag}/postings"),
            VecOptions::new()
                .len(n * dim)
                .page_size(page_size)
                .pcache(64 * page_size)
                .tenant(postings_tid),
        )?;
        {
            let tx = v.tx(p, TxKind::seq(0, n * dim), Access::WriteGlobal)?;
            v.write_slice(p, 0, &model.grouped)?;
            tx.end()?;
        }
        if let Some(cb) = &model.pq {
            let m = cb.m as u64;
            let codes_tid = rt.tenants().register(
                "ann-codes",
                TenantClass::Interactive,
                BUDGET_UNBOUNDED,
                BUDGET_UNBOUNDED,
            );
            let cv: MmVec<u8> = MmVec::open(
                rt,
                p,
                &format!("mem://ann/{tag}/codes"),
                VecOptions::new()
                    .len(n * m)
                    .page_size(page_size)
                    .pcache(64 * page_size)
                    .tenant(codes_tid),
            )?;
            let tx = cv.tx(p, TxKind::seq(0, n * m), Access::WriteGlobal)?;
            cv.write_slice(p, 0, &model.codes)?;
            tx.end()?;
        }
        Ok(())
    }

    /// Open serving handles over a published index with explicit pcache
    /// caps (fresh handles: nothing cached from the build).
    pub fn open(
        rt: &Runtime,
        p: &Proc,
        tag: &str,
        model: Arc<IvfModel>,
        page_size: u64,
        caps: ServingCaps,
    ) -> Result<Self, MmError> {
        let n = model.len() as u64;
        let dim = model.dim as u64;
        let postings: MmVec<f32> = MmVec::open(
            rt,
            p,
            &format!("mem://ann/{tag}/postings"),
            VecOptions::new().len(n * dim).page_size(page_size).pcache(caps.postings_pcache),
        )?;
        let codes = match &model.pq {
            Some(cb) => Some(MmVec::open(
                rt,
                p,
                &format!("mem://ann/{tag}/codes"),
                VecOptions::new()
                    .len(n * cb.m as u64)
                    .page_size(page_size)
                    .pcache(caps.codes_pcache),
            )?),
            None => None,
        };
        Ok(Self { model, postings, codes })
    }

    /// The model this index serves.
    pub fn model(&self) -> &IvfModel {
        &self.model
    }

    /// Page size of the backing mm vectors.
    pub fn page_size(&self) -> u64 {
        self.postings.meta().page_size
    }

    /// The `nprobe` lists nearest to `q`, nearest first (ties broken by
    /// list id so results are deterministic).
    fn probe_lists(&self, q: &[f32]) -> Vec<usize> {
        let m = &self.model;
        let dim = m.dim;
        let mut order: Vec<(f32, usize)> = (0..m.params.nlist)
            .map(|c| (kernels::l2(q, &m.centroids[c * dim..(c + 1) * dim]), c))
            .collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1)));
        order.truncate(m.params.nprobe);
        order.into_iter().map(|(_, c)| c).collect()
    }

    /// Exhaustive scan of the probed posting lists at full precision.
    /// Sequential transactions per list: misses coalesce into ranged
    /// `read_pages` fetches.
    pub fn search_flat(
        &self,
        p: &Proc,
        q: &[f32],
        topk: usize,
    ) -> Result<Vec<(u32, f32)>, MmError> {
        let m = &self.model;
        let dim = m.dim;
        let mut hits: Vec<(f32, u32)> = Vec::new();
        let mut buf = vec![0f32; 0];
        for c in self.probe_lists(q) {
            let off = m.list_off[c];
            let elems = m.list_len[c] * dim as u64;
            if elems == 0 {
                continue;
            }
            buf.resize(elems as usize, 0.0);
            let tx = self.postings.tx(p, TxKind::seq(off, elems), Access::ReadLocal)?;
            self.postings.read_into(p, off, &mut buf)?;
            tx.end()?;
            let base = (off / dim as u64) as usize;
            for (r, v) in buf.chunks_exact(dim).enumerate() {
                hits.push((kernels::l2(q, v), m.ids[base + r]));
            }
        }
        hits.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1)));
        hits.truncate(topk);
        Ok(hits.into_iter().map(|(d, id)| (id, d)).collect())
    }

    /// PQ search: score codes against per-list ADC tables (codes stay in
    /// the hot tier), then re-rank the best [`IvfParams::rerank`]
    /// candidates from full precision under a `Random`-hinted transaction
    /// — point reads with no prefetch window and no score bookkeeping.
    pub fn search_pq(&self, p: &Proc, q: &[f32], topk: usize) -> Result<Vec<(u32, f32)>, MmError> {
        let m = &self.model;
        let cb = m.pq.as_ref().ok_or(MmError::Internal("search_pq without a codebook"))?;
        let codes = self.codes.as_ref().ok_or(MmError::Internal("codes vector not opened"))?;
        let dim = m.dim;
        let mb = cb.m as u64;
        let mut approx: Vec<(f32, u64)> = Vec::new();
        let mut cbuf = vec![0u8; 0];
        let mut residual = vec![0f32; dim];
        for c in self.probe_lists(q) {
            let pos0 = m.list_off[c] / dim as u64;
            let count = m.list_len[c];
            if count == 0 {
                continue;
            }
            for (d, slot) in residual.iter_mut().enumerate() {
                *slot = q[d] - m.centroids[c * dim + d];
            }
            let table = cb.adc_table(&residual);
            cbuf.resize((count * mb) as usize, 0);
            let tx = codes.tx(p, TxKind::seq(pos0 * mb, count * mb), Access::ReadLocal)?;
            codes.read_into(p, pos0 * mb, &mut cbuf)?;
            tx.end()?;
            for (r, code) in cbuf.chunks_exact(cb.m).enumerate() {
                approx.push((cb.adc_distance(&table, code), pos0 + r as u64));
            }
        }
        approx.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1)));
        approx.truncate(m.params.rerank.max(topk));
        // Re-rank from the full-precision postings: seeded-random kind
        // (the accesses really are scattered) plus the Random hint.
        let n_elems = m.len() as u64 * dim as u64;
        let mut hits: Vec<(f32, u32)> = Vec::with_capacity(approx.len());
        let mut vbuf = vec![0f32; dim];
        let tx = self.postings.tx_hinted(
            p,
            TxKind::rand(m.params.seed, 0, n_elems),
            Access::ReadLocal,
            AccessPattern::Random,
        )?;
        for &(_, pos) in &approx {
            self.postings.read_into(p, pos * dim as u64, &mut vbuf)?;
            hits.push((kernels::l2(q, &vbuf), m.ids[pos as usize]));
        }
        tx.end()?;
        hits.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1)));
        hits.truncate(topk);
        Ok(hits.into_iter().map(|(d, id)| (id, d)).collect())
    }

    /// Scache tier usage of the postings bucket (diagnostics: where the
    /// cold structure currently lives).
    pub fn postings_tier_usage(&self, rt: &Runtime) -> Vec<(megammap_sim::TierKind, u64)> {
        rt.node(0).dmsh.bucket_tier_usage(self.postings.meta().id)
    }

    /// Scache tier usage of the codes bucket (PQ path).
    pub fn codes_tier_usage(&self, rt: &Runtime) -> Option<Vec<(megammap_sim::TierKind, u64)>> {
        self.codes.as_ref().map(|cv| rt.node(0).dmsh.bucket_tier_usage(cv.meta().id))
    }
}

/// Brute-force exact top-`k` over the whole corpus (ground truth for
/// recall; fixed scalar kernel so the reference never depends on dispatch).
pub fn brute_force_topk(ds: &VecDataset, q: &[f32], k: usize) -> Vec<u32> {
    let mut all: Vec<(f32, u32)> =
        (0..ds.len()).map(|i| (kernels::l2_scalar(q, ds.row(i)), i as u32)).collect();
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(_, id)| id).collect()
}

/// Recall@k of `got` against ground truth `want` (both id lists).
pub fn recall_at(want: &[u32], got: &[(u32, f32)], k: usize) -> f64 {
    let want: std::collections::HashSet<u32> = want.iter().take(k).copied().collect();
    let hit = got.iter().take(k).filter(|(id, _)| want.contains(id)).count();
    hit as f64 / want.len().max(1) as f64
}
