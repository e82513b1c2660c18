//! Packed, register-blocked GEMM — the training hot path's fast kernel.
//!
//! The naive i-k-j [`gemm`](crate::gemm::gemm) loads and stores every
//! `C[i, j]` once per `p` iteration: the innermost statement is
//! `c[j] += aval * b[j]`, three memory operations per FLOP pair. This
//! module uses the classic GotoBLAS decomposition instead:
//!
//! 1. the k dimension is cut into `KC`-deep panels;
//! 2. each panel of `B` is **packed** into contiguous `NR`-column strips
//!    (`kc × NR` values each, zero-padded at the right edge) and each
//!    `MC`-row block of `A` into `MR`-row strips with `alpha`
//!    pre-multiplied;
//! 3. an unrolled **micro-kernel** computes an `MR × NR` tile of `C`
//!    entirely in register accumulators, touching `C` memory only to load
//!    the tile once per panel and store it once per panel.
//!
//! `MR = 4, NR = 8` maps one C row of the tile onto a single 8-lane f32
//! vector register (`ymm` on AVX2; a `float32x4` pair on NEON), with the
//! portable scalar kernel computing the identical `[[f32; NR]; MR]`
//! accumulator block. AVX2 also has variants for full-width tiles of 1, 2
//! and 3 rows, so a product with few output rows (a decode step's `m` =
//! lanes) stays in SIMD; only column-edge tiles, and short-row tiles on
//! the other variants, run the scalar edge kernel. The micro-kernel
//! variant is what [`MicroKernel::detect`] finds on the host
//! ([`set_micro_kernel`] pins another for tests and benchmarks) and
//! `KC`/`MC` are the constants [`DEFAULT_KC`]/[`DEFAULT_MC`]: the
//! candidates a tile race could try sit within run-to-run noise of each
//! other on every shape the stack issues, so nothing is tuned at run time.
//!
//! There is one band loop, and it runs on a packed `B`. Step 2's `B` pack
//! is either built per call in a thread-local
//! [`ScratchArena`](echo_memory::ScratchArena) ([`gemm_packed_parallel`])
//! or kept from an earlier call as a [`PackedPanel`] ([`gemm_with_panel`]):
//! the graph executor keeps one per weight and orientation
//! ([`PanelCache`](crate::PanelCache)), so a weight read at every timestep
//! or decode step is packed once per value. Either way steady-state
//! training performs **zero** heap allocation per GEMM call.
//!
//! # Bit-exactness
//!
//! Every kernel in this crate computes each output element with the same
//! floating-point operation sequence: `c ← beta·c`, then
//! `c ← c + (alpha·a[i,p])·b[p,j]` for `p` strictly ascending. The
//! micro-kernel preserves it — the accumulator is *loaded from* `C`, so
//! storing the tile between k-panels round-trips the exact f32 value —
//! and row-band parallelism assigns each output element to exactly one
//! band. The SIMD variants preserve it too: each vector lane `j` performs
//! the same scalar `acc += a_i * b_j` chain (a separate IEEE multiply and
//! add per step — **never** a fused multiply-add, which would round once
//! instead of twice), so scalar, AVX2 and NEON kernels are bit-identical,
//! as are all tile sizes (the C tile round-trips exactly through memory
//! at every `KC`/`MC` boundary). Naive, packed, and packed-parallel at any
//! `ways` — on a fresh pack or a kept panel, which holds the same bytes —
//! are therefore **bit-identical**, which is what lets the dispatch layer
//! route by shape and by panel without perturbing training.

use crate::error::TensorError;
use crate::layout::MatrixLayout;
use crate::matrix::{MatView, MatViewMut};
use crate::pool::{self, band_count, SendPtr};
use crate::Result;
use echo_memory::ScratchArena;
use std::sync::atomic::{AtomicU8, Ordering};

/// Rows per A strip / micro-tile.
pub const MR: usize = 4;
/// Columns per B strip / micro-tile.
pub const NR: usize = 8;
/// Depth of one packed k-panel.
pub const DEFAULT_KC: usize = 256;
/// Rows of A packed per block (bounds the A pack buffer at `MC × KC`).
pub const DEFAULT_MC: usize = 128;

/// Element count below which B panels are packed serially — the latch
/// round-trip costs more than the copy for small operands.
const PAR_PACK_MIN_ELEMS: usize = 32 * 1024;

thread_local! {
    /// Per-thread pack-buffer arena: each pool worker (and the caller)
    /// reuses its own high-water buffers for the life of the process.
    static PACK_ARENA: ScratchArena = const { ScratchArena::new() };
}

/// Statistics of the calling thread's pack arena (for tests/benchmarks).
pub fn pack_arena_stats() -> (u64, u64, usize) {
    PACK_ARENA.with(|a| (a.lease_count(), a.reuse_hits(), a.high_water_elems()))
}

/// The inner-tile implementation used for full-width (`NR`-column) tiles.
///
/// All variants compute the identical per-lane FP sequence (separate
/// multiply and add — no FMA contraction), so they are bit-identical and
/// the choice is purely a speed knob. AVX2 runs every full-width tile, at
/// any row count `1..=MR`; scalar and NEON run the full `MR × NR` tile.
/// Every other tile — column edges, and short rows without a variant —
/// takes the scalar edge path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKernel {
    /// Portable scalar accumulator block (always available).
    Scalar,
    /// 8-lane `ymm` kernel via AVX2 intrinsics (x86_64 only).
    Avx2,
    /// Paired `float32x4` kernel via NEON intrinsics (aarch64 only).
    Neon,
}

impl MicroKernel {
    /// Short stable name (bench JSON, reports).
    pub fn name(self) -> &'static str {
        match self {
            MicroKernel::Scalar => "scalar",
            MicroKernel::Avx2 => "avx2",
            MicroKernel::Neon => "neon",
        }
    }

    /// Whether this variant can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            MicroKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            MicroKernel::Avx2 => false,
            // NEON is a baseline feature of aarch64.
            MicroKernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The fastest variant available on this host.
    pub fn detect() -> MicroKernel {
        if MicroKernel::Avx2.is_available() {
            MicroKernel::Avx2
        } else if MicroKernel::Neon.is_available() {
            MicroKernel::Neon
        } else {
            MicroKernel::Scalar
        }
    }

    /// The kernel for a full-width tile of `mr` rows, at index `mr - 1`;
    /// `None` sends that tile to [`micro_edge`].
    fn tile_fns(self) -> TileFns {
        match self {
            #[cfg(target_arch = "x86_64")]
            MicroKernel::Avx2 if self.is_available() => [
                Some(micro_rows_avx2::<1>),
                Some(micro_rows_avx2::<2>),
                Some(micro_rows_avx2::<3>),
                Some(micro_rows_avx2::<MR>),
            ],
            #[cfg(target_arch = "aarch64")]
            MicroKernel::Neon if self.is_available() => [None, None, None, Some(micro_full_neon)],
            // Unavailable variants silently fall back to scalar: the
            // result is bit-identical either way.
            _ => [None, None, None, Some(micro_full_scalar)],
        }
    }
}

/// Every variant that can run on this host (scalar first).
pub fn available_micro_kernels() -> Vec<MicroKernel> {
    [MicroKernel::Scalar, MicroKernel::Avx2, MicroKernel::Neon]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

const KERNEL_UNSET: u8 = u8::MAX;

/// Process-wide micro-kernel override (set via [`set_micro_kernel`]).
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

fn encode_kernel(k: MicroKernel) -> u8 {
    match k {
        MicroKernel::Scalar => 0,
        MicroKernel::Avx2 => 1,
        MicroKernel::Neon => 2,
    }
}

fn decode_kernel(v: u8) -> Option<MicroKernel> {
    match v {
        0 => Some(MicroKernel::Scalar),
        1 => Some(MicroKernel::Avx2),
        2 => Some(MicroKernel::Neon),
        _ => None,
    }
}

/// The micro-kernel variant every packed GEMM in this process uses: an
/// explicit override ([`set_micro_kernel`]) or else runtime detection.
/// All variants are bit-identical, so flipping this is safe at any point.
pub fn active_micro_kernel() -> MicroKernel {
    decode_kernel(KERNEL_OVERRIDE.load(Ordering::Relaxed)).unwrap_or_else(MicroKernel::detect)
}

/// Overrides the process-wide micro-kernel (`None` restores detection).
/// Returns `false` — leaving the state unchanged — if the requested
/// variant is unavailable on this host.
pub fn set_micro_kernel(kernel: Option<MicroKernel>) -> bool {
    match kernel {
        Some(k) if !k.is_available() => false,
        Some(k) => {
            KERNEL_OVERRIDE.store(encode_kernel(k), Ordering::Relaxed);
            true
        }
        None => {
            KERNEL_OVERRIDE.store(KERNEL_UNSET, Ordering::Relaxed);
            true
        }
    }
}

/// Serial packed GEMM: `C = alpha*A*B + beta*C` with a row-major `C`,
/// entirely on the calling thread.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up or `C` is not row-major.
pub fn gemm_packed(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
) -> Result<()> {
    gemm_packed_parallel(alpha, a, b, beta, c, 1)
}

/// Packed GEMM over at most `ways` row bands run on the shared
/// [worker pool](crate::pool), with the process-wide micro-kernel
/// ([`active_micro_kernel`]) and the constant tiles. `ways == 1` never
/// touches the pool.
///
/// `B` is packed once — in parallel `(panel, strip)` items for large
/// operands when `ways > 1` — and shared read-only by all bands; each band
/// packs its own rows of `A` into its thread-local arena. Bands partition
/// **output rows only**, so the per-element accumulation order is
/// independent of `ways` (see the module docs).
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up or `C` is not row-major.
pub fn gemm_packed_parallel(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
    ways: usize,
) -> Result<()> {
    gemm_packed_parallel_with(
        alpha,
        a,
        b,
        beta,
        c,
        ways,
        active_micro_kernel(),
        DEFAULT_KC,
        DEFAULT_MC,
    )
}

/// [`gemm_packed_parallel`] with an explicit micro-kernel and `(KC, MC)`
/// tile configuration — the entry point tests and benches use to compare
/// variants without touching the process-global kernel. An unavailable
/// `kernel` silently falls back to scalar (bit-identical result).
///
/// `B` is packed into the thread's arena and the product runs on that
/// panel exactly as [`gemm_with_panel`] runs on a kept one.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up or `C` is not row-major.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_parallel_with(
    alpha: f32,
    a: MatView<'_>,
    b: MatView<'_>,
    beta: f32,
    c: &mut MatViewMut<'_>,
    ways: usize,
    kernel: MicroKernel,
    kc_tile: usize,
    mc_tile: usize,
) -> Result<()> {
    crate::gemm::check_dims(&a, &b, c)?;
    let (k, n) = (b.rows(), b.cols());
    if !prepare_c(a.rows(), k, n, beta, c)? {
        return Ok(());
    }
    let kc = kc_tile.max(1);
    PACK_ARENA.with(|arena| {
        arena.with_f32(panel_len(k, n), |bpack| {
            pack_b(b, kc, ways, bpack);
            let panel = PanelRef {
                data: bpack,
                k,
                n,
                kc,
            };
            gemm_on_panel(alpha, a, panel, c.data_mut(), ways, kernel, mc_tile);
        })
    });
    Ok(())
}

/// A `B` operand packed once for the packed kernel: `DEFAULT_KC`-deep
/// panels of `NR`-column strips, byte for byte the buffer
/// [`gemm_packed_parallel`] builds in its arena on every call. Keeping it
/// lets every later product with the same `B` — a weight read at each
/// timestep or decode step — skip the pack ([`gemm_with_panel`]).
#[derive(Debug, Default)]
pub struct PackedPanel {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedPanel {
    /// Packs `b` (`k × n`, either layout) on the calling thread.
    pub fn pack(b: MatView<'_>) -> PackedPanel {
        let mut panel = PackedPanel::default();
        panel.repack(b, 1);
        panel
    }

    /// Re-packs `b` into this panel's storage, which is reused when it is
    /// large enough. `ways > 1` lets a large operand pack in parallel on
    /// the worker pool; `ways == 1` never touches it.
    pub fn repack(&mut self, b: MatView<'_>, ways: usize) {
        let (k, n) = (b.rows(), b.cols());
        self.data.clear();
        self.data.resize(panel_len(k, n), 0.0);
        pack_b(b, DEFAULT_KC, ways, &mut self.data);
        self.k = k;
        self.n = n;
    }

    /// Rows of the packed `B` (the product's `k`).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of the packed `B` (the product's `n`).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Host bytes the packed values occupy.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// `C = alpha*A*B + beta*C` with `B` given as a [`PackedPanel`]: the
/// packed kernel without its pack step, bit-identical to
/// [`gemm_packed_parallel_with`] on the `B` the panel was packed from.
/// Row bands (at most `ways`, on the worker pool) share the panel
/// read-only; `ways == 1` never touches the pool.
///
/// # Errors
///
/// Returns [`TensorError::GemmDimension`] when the operand shapes do not
/// line up or `C` is not row-major.
pub fn gemm_with_panel(
    alpha: f32,
    a: MatView<'_>,
    panel: &PackedPanel,
    beta: f32,
    c: &mut MatViewMut<'_>,
    ways: usize,
    kernel: MicroKernel,
) -> Result<()> {
    let (k, n) = (panel.k, panel.n);
    if a.cols() != k || c.rows() != a.rows() || c.cols() != n {
        return Err(TensorError::GemmDimension {
            a: (a.rows(), a.cols()),
            b: (k, n),
            c: (c.rows(), c.cols()),
        });
    }
    if prepare_c(a.rows(), k, n, beta, c)? {
        let panel = PanelRef {
            data: &panel.data,
            k,
            n,
            kc: DEFAULT_KC,
        };
        gemm_on_panel(alpha, a, panel, c.data_mut(), ways, kernel, DEFAULT_MC);
    }
    Ok(())
}

/// Rejects a column-major `C`, applies `beta`, and says whether any
/// product remains to add (`false` for an empty `m`, `k` or `n`).
fn prepare_c(m: usize, k: usize, n: usize, beta: f32, c: &mut MatViewMut<'_>) -> Result<bool> {
    if c.layout() != MatrixLayout::RowMajor {
        return Err(TensorError::GemmDimension {
            a: (m, k),
            b: (k, n),
            c: (c.rows(), c.cols()),
        });
    }
    c.scale(beta);
    Ok(m > 0 && n > 0 && k > 0)
}

/// Values in a packed `k × n` operand: every strip is padded to `NR`.
fn panel_len(k: usize, n: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// A packed `B`, borrowed: `kc`-deep panels stored back to back, the
/// panel starting at `p0` at offset `p0 * n_strips * NR`.
#[derive(Clone, Copy)]
struct PanelRef<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
    kc: usize,
}

/// The one band loop: computes `C += (alpha·A)·B` for the packed `B`
/// over at most `ways` row bands, each band packing its own rows of `A`
/// into its thread-local arena. Bands partition **output rows only**, so
/// the per-element accumulation order is independent of `ways` (see the
/// module docs).
fn gemm_on_panel(
    alpha: f32,
    a: MatView<'_>,
    panel: PanelRef<'_>,
    cd: &mut [f32],
    ways: usize,
    kernel: MicroKernel,
    mc_tile: usize,
) {
    let (m, n) = (a.rows(), panel.n);
    let mc_tile = mc_tile.max(MR);
    let tiles = kernel.tile_fns();
    let bands = band_count(m, MR, ways);
    if bands <= 1 {
        packed_band(alpha, a, 0, m, panel, cd, &tiles, mc_tile);
        return;
    }
    let rows_per = m.div_ceil(bands);
    let cbase = SendPtr(cd.as_mut_ptr());
    let cbase = &cbase;
    let tiles = &tiles;
    pool::global().run_indexed(bands, &move |band_idx| {
        let row0 = band_idx * rows_per;
        if row0 >= m {
            return; // rounding can leave a trailing empty band
        }
        let band_rows = rows_per.min(m - row0);
        // SAFETY: bands partition C's rows disjointly, so each
        // index writes a non-overlapping `band_rows × n` slice.
        let band = unsafe { std::slice::from_raw_parts_mut(cbase.0.add(row0 * n), band_rows * n) };
        packed_band(alpha, a, row0, band_rows, panel, band, tiles, mc_tile);
    });
}

/// Packs all of `B` (`k × n`) into `kc_tile`-deep panels of `NR`-column
/// strips — in parallel `(panel, strip)` items on the pool for large
/// operands, unless the caller asked for a serial GEMM (`ways <= 1`).
fn pack_b(b: MatView<'_>, kc_tile: usize, ways: usize, bpack: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    let n_strips = n.div_ceil(NR);
    let n_panels = k.div_ceil(kc_tile);
    let items = n_panels * n_strips;
    if ways > 1 && items > 1 && k * n >= PAR_PACK_MIN_ELEMS {
        let base = SendPtr(bpack.as_mut_ptr());
        let base = &base;
        pool::global().run_indexed(items, &move |item| {
            let panel = item / n_strips;
            let js = item % n_strips;
            let p0 = panel * kc_tile;
            let kc = kc_tile.min(k - p0);
            let off = p0 * n_strips * NR + js * kc * NR;
            // SAFETY: each (panel, strip) item owns a disjoint `kc × NR`
            // region of the pack buffer.
            let strip = unsafe { std::slice::from_raw_parts_mut(base.0.add(off), kc * NR) };
            pack_b_strip(b, p0, kc, js * NR, n, strip);
        });
        return;
    }
    let mut p0 = 0;
    while p0 < k {
        let kc = kc_tile.min(k - p0);
        for js in 0..n_strips {
            let strip = &mut bpack[p0 * n_strips * NR + js * kc * NR..][..kc * NR];
            pack_b_strip(b, p0, kc, js * NR, n, strip);
        }
        p0 += kc;
    }
}

/// Computes rows `row0 .. row0 + rows` of `C` (a row-major `rows × n`
/// slice) against the packed `B`. `alpha` is folded into the A pack.
#[allow(clippy::too_many_arguments)]
fn packed_band(
    alpha: f32,
    a: MatView<'_>,
    row0: usize,
    rows: usize,
    panel: PanelRef<'_>,
    cband: &mut [f32],
    tiles: &TileFns,
    mc_tile: usize,
) {
    let PanelRef {
        data,
        k,
        n,
        kc: kc_tile,
    } = panel;
    let n_strips = n.div_ceil(NR);
    PACK_ARENA.with(|arena| {
        let mut p0 = 0;
        while p0 < k {
            let kc = kc_tile.min(k - p0);
            let bpanel = &data[p0 * n_strips * NR..][..kc * n_strips * NR];
            let mut i0 = 0;
            while i0 < rows {
                let ic = mc_tile.min(rows - i0);
                let i_strips = ic.div_ceil(MR);
                arena.with_f32(i_strips * MR * kc, |apack| {
                    pack_a_block(alpha, a, row0 + i0, ic, p0, kc, apack);
                    for js in 0..n_strips {
                        let j0 = js * NR;
                        let nr = NR.min(n - j0);
                        let bstrip = &bpanel[js * kc * NR..][..kc * NR];
                        for is in 0..i_strips {
                            let ii = is * MR;
                            let mr = MR.min(ic - ii);
                            let astrip = &apack[is * kc * MR..][..kc * MR];
                            let coff = (i0 + ii) * n + j0;
                            match tiles[mr - 1] {
                                // SAFETY: the variant was availability-
                                // checked in `tile_fns`, and the C slice
                                // holds the full `mr × NR` tile.
                                Some(micro) if nr == NR => unsafe {
                                    micro(kc, astrip, bstrip, &mut cband[coff..], n)
                                },
                                _ => micro_edge(kc, astrip, bstrip, cband, coff, n, mr, nr),
                            }
                        }
                    }
                });
                i0 += ic;
            }
            p0 += kc;
        }
    });
}

/// Packs one `NR`-column strip of a `kc`-deep B panel: `kc × NR` values,
/// row-of-panel major, zero-padded past column `n`.
fn pack_b_strip(b: MatView<'_>, p0: usize, kc: usize, j0: usize, n: usize, strip: &mut [f32]) {
    let (brs, bcs) = (
        b.layout().row_stride(b.rows(), b.cols()),
        b.layout().col_stride(b.rows(), b.cols()),
    );
    let bd = b.data();
    let nr = NR.min(n - j0);
    for p in 0..kc {
        let brow = (p0 + p) * brs;
        let dst = &mut strip[p * NR..p * NR + NR];
        for (j, d) in dst.iter_mut().enumerate() {
            *d = if j < nr {
                bd[brow + (j0 + j) * bcs]
            } else {
                0.0
            };
        }
    }
}

/// Packs `ic` rows of `A` starting at `row0` (k range `p0 .. p0 + kc`)
/// into `MR`-row strips with `alpha` pre-multiplied (reproducing the naive
/// kernel's `aval = alpha * a[i, p]` rounding exactly); rows past the edge
/// are zero.
fn pack_a_block(
    alpha: f32,
    a: MatView<'_>,
    row0: usize,
    ic: usize,
    p0: usize,
    kc: usize,
    out: &mut [f32],
) {
    let (ars, acs) = (
        a.layout().row_stride(a.rows(), a.cols()),
        a.layout().col_stride(a.rows(), a.cols()),
    );
    let ad = a.data();
    let i_strips = ic.div_ceil(MR);
    for is in 0..i_strips {
        let ii = is * MR;
        let mr = MR.min(ic - ii);
        let strip = &mut out[is * kc * MR..][..kc * MR];
        for p in 0..kc {
            let acol = (p0 + p) * acs;
            let dst = &mut strip[p * MR..p * MR + MR];
            for (i, d) in dst.iter_mut().enumerate() {
                *d = if i < mr {
                    alpha * ad[(row0 + ii + i) * ars + acol]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Signature shared by every tile micro-kernel variant. `unsafe`
/// because the SIMD variants require their target feature (checked once
/// at selection time) and index `c` through raw pointers.
type MicroFn = unsafe fn(usize, &[f32], &[f32], &mut [f32], usize);

/// A variant's kernels for full-width tiles of `1..=MR` rows, at index
/// `rows - 1` (see [`MicroKernel::tile_fns`]).
type TileFns = [Option<MicroFn>; MR];

/// Full `MR × NR` scalar micro-kernel: loads the C tile into register
/// accumulators, adds `kc` rank-1 updates in ascending `p`, stores back.
/// `c` points at the tile's top-left element; `ldc` is C's row stride.
///
/// (`unsafe fn` only to match [`MicroFn`]; the body is safe code.)
unsafe fn micro_full_scalar(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[i * ldc..i * ldc + NR]);
    }
    let ap = &ap[..kc * MR];
    let bp = &bp[..kc * NR];
    for p in 0..kc {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = a[i];
            for (j, acc_ij) in row.iter_mut().enumerate() {
                *acc_ij += ai * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        c[i * ldc..i * ldc + NR].copy_from_slice(row);
    }
}

/// AVX2 micro-kernel for a full-width tile of `R ≤ MR` rows: one 8-lane
/// `ymm` accumulator per C row, reading the first `R` values of each
/// `MR`-wide A step (the rest are the pack's zero padding). Uses a
/// separate `_mm256_mul_ps` + `_mm256_add_ps` per update — *not* FMA — so
/// each lane's rounding sequence matches the scalar kernel exactly (see
/// the module docs on bit-exactness).
///
/// # Safety
///
/// Requires AVX2 (callers go through [`MicroKernel::tile_fns`], which
/// checks availability) and a `c` slice covering the `R × NR` tile at row
/// stride `ldc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn micro_rows_avx2<const R: usize>(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(R <= MR && ap.len() >= kc * MR && bp.len() >= kc * NR);
    debug_assert!(c.len() >= (R - 1) * ldc + NR);
    unsafe {
        let cp = c.as_mut_ptr();
        let mut acc = [_mm256_setzero_ps(); R];
        for (i, acc_i) in acc.iter_mut().enumerate() {
            *acc_i = _mm256_loadu_ps(cp.add(i * ldc));
        }
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kc {
            let bv = _mm256_loadu_ps(b);
            for (i, acc_i) in acc.iter_mut().enumerate() {
                *acc_i = _mm256_add_ps(*acc_i, _mm256_mul_ps(_mm256_set1_ps(*a.add(i)), bv));
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        for (i, acc_i) in acc.iter().enumerate() {
            _mm256_storeu_ps(cp.add(i * ldc), *acc_i);
        }
    }
}

/// Full-tile NEON micro-kernel: two `float32x4` accumulators per C row.
/// Separate `vmulq_f32` + `vaddq_f32` per update — no FMA — for the same
/// bit-exactness argument as the AVX2 variant.
///
/// # Safety
///
/// Requires NEON (baseline on aarch64; callers go through
/// [`MicroKernel::tile_fns`]) and a `c` slice covering the full `MR × NR`
/// tile at row stride `ldc`.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn micro_full_neon(kc: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    use std::arch::aarch64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    debug_assert!(c.len() >= (MR - 1) * ldc + NR);
    unsafe {
        let cp = c.as_mut_ptr();
        let mut lo = [vdupq_n_f32(0.0); MR];
        let mut hi = [vdupq_n_f32(0.0); MR];
        for i in 0..MR {
            lo[i] = vld1q_f32(cp.add(i * ldc));
            hi[i] = vld1q_f32(cp.add(i * ldc + 4));
        }
        let mut a = ap.as_ptr();
        let mut b = bp.as_ptr();
        for _ in 0..kc {
            let blo = vld1q_f32(b);
            let bhi = vld1q_f32(b.add(4));
            for i in 0..MR {
                let ai = vdupq_n_f32(*a.add(i));
                lo[i] = vaddq_f32(lo[i], vmulq_f32(ai, blo));
                hi[i] = vaddq_f32(hi[i], vmulq_f32(ai, bhi));
            }
            a = a.add(MR);
            b = b.add(NR);
        }
        for i in 0..MR {
            vst1q_f32(cp.add(i * ldc), lo[i]);
            vst1q_f32(cp.add(i * ldc + 4), hi[i]);
        }
    }
}

/// Edge micro-kernel for partial tiles (`mr ≤ MR`, `nr ≤ NR`): valid
/// lanes are loaded from C and stored back; padded lanes accumulate only
/// products of physical zeros and are discarded. Always scalar. It runs
/// column-edge tiles (`nr < NR`), which are rare, and short-row tiles on
/// variants with no kernel for that row count; the scalar block is
/// bit-identical to SIMD anyway.
#[allow(clippy::too_many_arguments)]
fn micro_edge(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    coff: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[coff + i * ldc..coff + i * ldc + nr]);
    }
    for p in 0..kc {
        let a = &ap[p * MR..p * MR + MR];
        let b = &bp[p * NR..p * NR + NR];
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = a[i];
            for (j, acc_ij) in row.iter_mut().enumerate() {
                *acc_ij += ai * b[j];
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        c[coff + i * ldc..coff + i * ldc + nr].copy_from_slice(&row[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::layout::MatrixLayout::{ColMajor, RowMajor};

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|v| {
                (((v as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) % 2048) as f32
                    / 256.0
                    - 4.0
            })
            .collect()
    }

    #[test]
    fn packed_is_bit_identical_to_naive() {
        // Shapes straddle MR/NR/KC edges.
        for (m, k, n) in [
            (1, 1, 1),
            (4, 8, 8),
            (5, 7, 9),
            (37, 300, 65),
            (64, 257, 33),
        ] {
            for la in [RowMajor, ColMajor] {
                for lb in [RowMajor, ColMajor] {
                    let a_data = fill(m * k, 1);
                    let b_data = fill(k * n, 2);
                    let a = MatView::new(&a_data, m, k, la);
                    let b = MatView::new(&b_data, k, n, lb);
                    let mut c1 = fill(m * n, 3);
                    let mut c2 = c1.clone();
                    gemm(
                        1.25,
                        a,
                        b,
                        0.5,
                        &mut MatViewMut::new(&mut c1, m, n, RowMajor),
                    )
                    .unwrap();
                    gemm_packed(
                        1.25,
                        a,
                        b,
                        0.5,
                        &mut MatViewMut::new(&mut c2, m, n, RowMajor),
                    )
                    .unwrap();
                    assert_eq!(
                        c1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        c2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{m}x{k}x{n} {la:?} {lb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_kernel_and_tile_config_is_bit_identical() {
        let (m, k, n) = (37, 300, 65);
        let a_data = fill(m * k, 21);
        let b_data = fill(k * n, 22);
        let init = fill(m * n, 23);
        let mut reference = init.clone();
        gemm(
            1.25,
            MatView::new(&a_data, m, k, RowMajor),
            MatView::new(&b_data, k, n, RowMajor),
            0.5,
            &mut MatViewMut::new(&mut reference, m, n, RowMajor),
        )
        .unwrap();
        for kernel in available_micro_kernels() {
            for (kc, mc) in [(DEFAULT_KC, DEFAULT_MC), (64, 32), (128, 64), (512, 256)] {
                for ways in [1usize, 3] {
                    let mut c = init.clone();
                    gemm_packed_parallel_with(
                        1.25,
                        MatView::new(&a_data, m, k, RowMajor),
                        MatView::new(&b_data, k, n, RowMajor),
                        0.5,
                        &mut MatViewMut::new(&mut c, m, n, RowMajor),
                        ways,
                        kernel,
                        kc,
                        mc,
                    )
                    .unwrap();
                    assert_eq!(
                        reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "kernel {} kc {kc} mc {mc} ways {ways}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_override_round_trips() {
        // The default on this host must itself be available.
        assert!(active_micro_kernel().is_available());
        assert!(set_micro_kernel(Some(MicroKernel::Scalar)));
        assert_eq!(active_micro_kernel(), MicroKernel::Scalar);
        assert!(set_micro_kernel(None));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!set_micro_kernel(Some(MicroKernel::Avx2)));
    }

    #[test]
    fn packed_parallel_bit_identical_for_every_way_count() {
        let (m, k, n) = (61, 130, 47);
        let a_data = fill(m * k, 7);
        let b_data = fill(k * n, 11);
        let mut reference = fill(m * n, 13);
        let init = reference.clone();
        gemm(
            1.0,
            MatView::new(&a_data, m, k, RowMajor),
            MatView::new(&b_data, k, n, RowMajor),
            1.0,
            &mut MatViewMut::new(&mut reference, m, n, RowMajor),
        )
        .unwrap();
        for ways in [1usize, 2, 4, 8] {
            let mut c = init.clone();
            gemm_packed_parallel(
                1.0,
                MatView::new(&a_data, m, k, RowMajor),
                MatView::new(&b_data, k, n, RowMajor),
                1.0,
                &mut MatViewMut::new(&mut c, m, n, RowMajor),
                ways,
            )
            .unwrap();
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "ways = {ways}"
            );
        }
    }

    #[test]
    fn packed_propagates_nan_from_b() {
        // Serial, and banded with every band seeing the NaN column.
        let a_data = vec![0.0f32; 8 * 2];
        let mut b_data = vec![1.0f32; 2 * 8];
        b_data[0] = f32::NAN;
        for ways in [1usize, 4] {
            let mut c = vec![0.0f32; 8 * 8];
            gemm_packed_parallel(
                1.0,
                MatView::new(&a_data, 8, 2, RowMajor),
                MatView::new(&b_data, 2, 8, RowMajor),
                0.0,
                &mut MatViewMut::new(&mut c, 8, 8, RowMajor),
                ways,
            )
            .unwrap();
            for row in 0..8 {
                assert!(c[row * 8].is_nan(), "0 × NaN must propagate (ways {ways})");
                assert_eq!(c[row * 8 + 1], 0.0);
            }
        }
    }

    #[test]
    fn packed_handles_degenerate_shapes() {
        for ways in [1usize, 4] {
            // k == 0: C = beta * C exactly (no products contribute).
            let mut c = vec![3.0f32; 6];
            gemm_packed_parallel(
                1.0,
                MatView::new(&[], 2, 0, RowMajor),
                MatView::new(&[], 0, 3, RowMajor),
                0.5,
                &mut MatViewMut::new(&mut c, 2, 3, RowMajor),
                ways,
            )
            .unwrap();
            assert_eq!(c, vec![1.5f32; 6]);

            // n == 0 and m == 0: empty outputs, nothing to band.
            let mut empty: Vec<f32> = vec![];
            gemm_packed_parallel(
                1.0,
                MatView::new(&[1.0; 8], 8, 1, RowMajor),
                MatView::new(&[], 1, 0, RowMajor),
                0.0,
                &mut MatViewMut::new(&mut empty, 8, 0, RowMajor),
                ways,
            )
            .unwrap();
            gemm_packed_parallel(
                1.0,
                MatView::new(&[], 0, 2, RowMajor),
                MatView::new(&[1.0; 6], 2, 3, RowMajor),
                0.0,
                &mut MatViewMut::new(&mut empty, 0, 3, RowMajor),
                ways,
            )
            .unwrap();
        }

        // m smaller than the band count must not mis-band.
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let identity = [1.0f32, 0.0, 0.0, 1.0];
        let mut c = vec![0.0f32; 4];
        gemm_packed_parallel(
            1.0,
            MatView::new(&a, 2, 2, RowMajor),
            MatView::new(&identity, 2, 2, RowMajor),
            0.0,
            &mut MatViewMut::new(&mut c, 2, 2, RowMajor),
            8,
        )
        .unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn pack_buffers_are_reused_across_calls() {
        let (m, k, n) = (16, 32, 16);
        let a_data = fill(m * k, 1);
        let b_data = fill(k * n, 2);
        let before = pack_arena_stats().0;
        for _ in 0..8 {
            let mut c = vec![0.0f32; m * n];
            gemm_packed(
                1.0,
                MatView::new(&a_data, m, k, RowMajor),
                MatView::new(&b_data, k, n, RowMajor),
                0.0,
                &mut MatViewMut::new(&mut c, m, n, RowMajor),
            )
            .unwrap();
        }
        let (leases, hits, _) = pack_arena_stats();
        let new_leases = leases - before;
        assert_eq!(new_leases, 16, "one B pack + one A pack per call");
        // Every lease after the first pair reuses a retained buffer.
        assert!(hits >= new_leases - 2, "leases {new_leases}, hits {hits}");
    }

    #[test]
    fn packed_rejects_col_major_output() {
        let a = vec![0.0f32; 4];
        let b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 4];
        assert!(gemm_packed(
            1.0,
            MatView::new(&a, 2, 2, RowMajor),
            MatView::new(&b, 2, 2, RowMajor),
            0.0,
            &mut MatViewMut::new(&mut c, 2, 2, ColMajor),
        )
        .is_err());
    }
}
