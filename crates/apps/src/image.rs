//! The wireless image-streaming application (§5.1).
//!
//! A stationary server streams image frames to a handheld client over an
//! 802.11b-class wireless link. The client's handler checks the event
//! type, resizes the frame to its display window (160×160 in the paper's
//! Table 2), and hands it to the native display routine. Frames may be
//! smaller than the display (80×80 — cheapest to ship raw and upsample at
//! the client) or larger (200×200 — cheapest to downsample at the server
//! first), "without the client's a priori knowledge".
//!
//! Three implementation versions reproduce Table 2's rows:
//!
//! * [`ImageVersion::ShipRaw`] — the manual version optimized for
//!   `Image < Display`: always send the original frame;
//! * [`ImageVersion::ResizeAtServer`] — the manual version optimized for
//!   `Image > Display`: always resize inside the server;
//! * [`ImageVersion::MethodPartitioning`] — the adaptive version: the
//!   data-size cost model plus runtime profiling pick the split per
//!   current frame population.

use std::sync::Arc;

use mpart::profile::TriggerPolicy;
use mpart::PseId;
use mpart_cost::{CostModel, DataSizeModel};
use mpart_ir::heap::{ArrayData, Heap, HeapCell};
use mpart_ir::interp::{BuiltinRegistry, ExecCtx};
use mpart_ir::marshal::{SelfSizerRegistry, ARRAY_HEADER_SIZE, OBJECT_HEADER_SIZE, REF_SIZE};
use mpart_ir::parse::parse_program;
use mpart_ir::types::{ClassTable, ElemType};
use mpart_ir::value::ObjRef;
use mpart_ir::{IrError, Program, Value};
use mpart_jecho::{SimConfig, SimSession};
use mpart_simnet::{Host, Link, SimTime};
use rand::prelude::*;

/// Display window side length used throughout Table 2.
pub const DISPLAY_SIDE: i64 = 160;

/// The handler program: `push` mirrors the paper's running example, with
/// the resize target fixed to the subscriber's display window.
pub const IMAGE_PROGRAM: &str = r#"
class ImageData { width: int, height: int, buff: ref }

fn push(event) {
    z0 = event instanceof ImageData
    if z0 == 0 goto skip
    img = (ImageData) event
    out = call resize_image(img, 160, 160)
    native display_image(out)
    return 1
skip:
    return 0
}
"#;

/// Which implementation of the application runs (Table 2's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageVersion {
    /// Manual version optimized for `Image < Display`: ship the raw frame.
    ShipRaw,
    /// Manual version optimized for `Image > Display`: resize at the
    /// server.
    ResizeAtServer,
    /// Adaptive Method Partitioning.
    MethodPartitioning,
}

impl ImageVersion {
    /// All three versions, in Table 2 row order.
    pub const ALL: [ImageVersion; 3] =
        [ImageVersion::ShipRaw, ImageVersion::ResizeAtServer, ImageVersion::MethodPartitioning];

    /// Table row label.
    pub fn label(self) -> &'static str {
        match self {
            ImageVersion::ShipRaw => "Image<Display",
            ImageVersion::ResizeAtServer => "Image>Display",
            ImageVersion::MethodPartitioning => "Method Partitioning",
        }
    }
}

/// Frame-population scenario (Table 2's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageScenario {
    /// All frames 80×80 (smaller than the display).
    Small,
    /// All frames 200×200 (larger than the display).
    Large,
    /// Alternating scenarios, each lasting `n ~ U[1, 20]` frames.
    Mixed,
}

impl ImageScenario {
    /// All three scenarios, in Table 2 column order.
    pub const ALL: [ImageScenario; 3] =
        [ImageScenario::Small, ImageScenario::Large, ImageScenario::Mixed];

    /// Table column label.
    pub fn label(self) -> &'static str {
        match self {
            ImageScenario::Small => "Small Image (80*80)",
            ImageScenario::Large => "Large Image (200*200)",
            ImageScenario::Mixed => "Mixed",
        }
    }

    /// Frame side-length sequence for `n` frames under `seed` (the Mixed
    /// scenario pre-generates its phase lengths, like the paper's
    /// pre-generated random arrays).
    pub fn sides(self, n: usize, seed: u64) -> Vec<i64> {
        match self {
            ImageScenario::Small => vec![80; n],
            ImageScenario::Large => vec![200; n],
            ImageScenario::Mixed => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut out = Vec::with_capacity(n);
                let mut small = true;
                while out.len() < n {
                    let phase = rng.random_range(1..=20usize);
                    let side = if small { 80 } else { 200 };
                    for _ in 0..phase.min(n - out.len()) {
                        out.push(side);
                    }
                    small = !small;
                }
                out
            }
        }
    }
}

/// Parses the handler program.
///
/// # Errors
///
/// Propagates parser errors (never fails for the embedded source).
pub fn image_program() -> Result<Arc<Program>, IrError> {
    image_program_custom(DISPLAY_SIDE)
}

/// Generates the handler for a client with a custom display window — the
/// paper's per-receiver customization ("customize image handling to
/// different client needs"): each subscriber submits its own handler with
/// its display size baked in, and gets its own modulator in the sender.
///
/// # Errors
///
/// Returns [`IrError::Invalid`] for a non-positive side, else parser
/// errors (none for valid sides).
pub fn image_program_custom(display_side: i64) -> Result<Arc<Program>, IrError> {
    if display_side <= 0 {
        return Err(IrError::Invalid(format!("display side must be positive, got {display_side}")));
    }
    let source = format!(
        r#"
class ImageData {{ width: int, height: int, buff: ref }}

fn push(event) {{
    z0 = event instanceof ImageData
    if z0 == 0 goto skip
    img = (ImageData) event
    out = call resize_image(img, {display_side}, {display_side})
    native display_image(out)
    return 1
skip:
    return 0
}}
"#
    );
    Ok(Arc::new(parse_program(&source)?))
}

fn resize_impl(classes: &ClassTable, heap: &mut Heap, args: &[Value]) -> Result<Value, IrError> {
    let src = args[0].as_ref("resize_image source")?;
    let w = args[1].as_int("resize_image width")?;
    let h = args[2].as_int("resize_image height")?;
    if w <= 0 || h <= 0 {
        return Err(IrError::Type("resize_image: non-positive target".into()));
    }
    let class =
        classes.id("ImageData").ok_or_else(|| IrError::Unresolved("class ImageData".into()))?;
    let decl = classes.decl(class);
    let f_width = decl.field("width").expect("width field");
    let f_height = decl.field("height").expect("height field");
    let f_buff = decl.field("buff").expect("buff field");

    let src_w = heap.field(src, f_width)?.as_int("width")?.max(1);
    let src_h = heap.field(src, f_height)?.as_int("height")?.max(1);
    let src_buff = heap.field(src, f_buff)?.as_ref("buff")?;

    let resized = resize_bytes(heap, src_buff, (src_w, src_h), (w, h));
    let out = heap.alloc_object(classes, class);
    let out_buff = match resized {
        Some(px) => heap.alloc_array_from(ArrayData::Byte(px)),
        None => {
            let out_buff = heap.alloc_array(ElemType::Byte, (w * h) as usize);
            resize_values(heap, src_buff, out_buff, (src_w, src_h), (w, h))?;
            out_buff
        }
    };
    heap.set_field(out, f_width, Value::Int(w))?;
    heap.set_field(out, f_height, Value::Int(h))?;
    heap.set_field(out, f_buff, Value::Ref(out_buff))?;
    Ok(Value::Ref(out))
}

/// Nearest-neighbour resize of a byte buffer holding every source pixel,
/// read as a slice with the column map computed once. `None` — nothing
/// read, nothing allocated — for any other buffer (another element type,
/// too short, not an array), which [`resize_values`] handles with the
/// identical result or error.
fn resize_bytes(
    heap: &Heap,
    src_buff: ObjRef,
    (src_w, src_h): (i64, i64),
    (w, h): (i64, i64),
) -> Option<Vec<u8>> {
    let Ok(HeapCell::Array(ArrayData::Byte(px))) = heap.cell(src_buff) else {
        return None;
    };
    if (px.len() as i64) < src_w.checked_mul(src_h)? {
        return None;
    }
    let cols: Vec<usize> = (0..w).map(|x| (x * src_w / w) as usize).collect();
    let mut out = Vec::with_capacity((w * h) as usize);
    for y in 0..h {
        let row = &px[(y * src_h / h * src_w) as usize..];
        out.extend(cols.iter().map(|&sx| row[sx]));
    }
    Some(out)
}

/// The per-pixel resize through `Value`s: any element type, and the
/// reference error (bounds index included) for a short buffer.
fn resize_values(
    heap: &mut Heap,
    src_buff: ObjRef,
    out_buff: ObjRef,
    (src_w, src_h): (i64, i64),
    (w, h): (i64, i64),
) -> Result<(), IrError> {
    for y in 0..h {
        let sy = y * src_h / h;
        for x in 0..w {
            let sx = x * src_w / w;
            let px = heap.array_get(src_buff, sy * src_w + sx)?;
            heap.array_set(out_buff, y * w + x, px)?;
        }
    }
    Ok(())
}

fn frame_pixels(classes: &ClassTable, heap: &Heap, args: &[Value]) -> u64 {
    let Some(Value::Ref(img)) = args.first() else { return 1 };
    let Some(class) = classes.id("ImageData") else { return 1 };
    let decl = classes.decl(class);
    let (Some(fw), Some(fh)) = (decl.field("width"), decl.field("height")) else {
        return 1;
    };
    let w = heap.field(*img, fw).ok().and_then(|v| v.as_int("w").ok()).unwrap_or(1);
    let h = heap.field(*img, fh).ok().and_then(|v| v.as_int("h").ok()).unwrap_or(1);
    (w * h).max(1) as u64
}

/// Builtins available on the *sender* side: the pure `resize_image`
/// (one work unit per output pixel).
pub fn server_builtins(program: &Program) -> BuiltinRegistry {
    let classes = program.classes.clone();
    let mut b = BuiltinRegistry::new();
    b.register_pure(
        "resize_image",
        |_, args| {
            let w = args.get(1).and_then(|v| v.as_int("w").ok()).unwrap_or(0);
            let h = args.get(2).and_then(|v| v.as_int("h").ok()).unwrap_or(0);
            (w * h).max(0) as u64
        },
        move |heap, args| resize_impl(&classes, heap, args),
    );
    b
}

/// Builtins on the *client* side: `resize_image` plus the native
/// `display_image` costing one work unit per painted pixel.
pub fn client_builtins(program: &Program) -> BuiltinRegistry {
    let mut b = server_builtins(program);
    let classes_cost = program.classes.clone();
    let classes_check = program.classes.clone();
    b.register_native_with_cost(
        "display_image",
        move |heap, args| frame_pixels(&classes_cost, heap, args),
        move |heap, args| {
            let img = args[0].as_ref("display_image frame")?;
            let class = classes_check.id("ImageData").expect("ImageData");
            if heap.class_of(img)? != Some(class) {
                return Err(IrError::Type("display_image: not an ImageData".into()));
            }
            Ok(Value::Null)
        },
    );
    b
}

/// Self-describing `sizeOf` for `ImageData` — the compiler-generated fast
/// sizing path of Table 1, used by the data-size profiler.
pub fn image_sizers(program: &Program) -> SelfSizerRegistry {
    let classes = program.classes.clone();
    let mut reg = SelfSizerRegistry::new();
    reg.register("ImageData", move |heap, obj| {
        let class = classes.id("ImageData").expect("ImageData");
        let decl = classes.decl(class);
        let w = heap.field(obj, decl.field("width").expect("width"))?.as_int("width")?;
        let h = heap.field(obj, decl.field("height").expect("height"))?.as_int("height")?;
        Ok(OBJECT_HEADER_SIZE + 2 * 8 + 2 * REF_SIZE + ARRAY_HEADER_SIZE + (w * h).max(0) as usize)
    });
    reg
}

/// The application's cost model: data size with the `ImageData`
/// self-sizer registered.
pub fn image_cost_model(program: &Program) -> Arc<dyn CostModel> {
    Arc::new(DataSizeModel::with_sizers(image_sizers(program)))
}

/// Allocates one `side × side` frame in the sender's context.
///
/// # Errors
///
/// Propagates heap errors.
pub fn make_frame(program: &Program, ctx: &mut ExecCtx, side: i64) -> Result<Vec<Value>, IrError> {
    let classes = &program.classes;
    let class = classes.id("ImageData").expect("ImageData");
    let decl = classes.decl(class);
    let img = ctx.heap.alloc_object(classes, class);
    let buff = ctx.heap.alloc_array(ElemType::Byte, (side * side) as usize);
    ctx.heap.set_field(img, decl.field("width").expect("width"), Value::Int(side))?;
    ctx.heap.set_field(img, decl.field("height").expect("height"), Value::Int(side))?;
    ctx.heap.set_field(img, decl.field("buff").expect("buff"), Value::Ref(buff))?;
    Ok(vec![Value::Ref(img)])
}

/// Hosts and link calibrated to the paper's testbed ratios: a fast server
/// laptop, a slow handheld (≈1.5 M pixel-ops/s), and a ~300 KB/s effective
/// 802.11b link.
pub fn image_testbed(trigger: TriggerPolicy) -> SimConfig {
    SimConfig::new(
        Host::new("server-laptop", 20_000_000.0),
        Link::new("wireless-802.11b", SimTime::from_millis(5), 300_000.0),
        Host::new("ipaq-client", 1_520_000.0),
        trigger,
    )
}

/// Result of one scenario run.
#[derive(Debug, Clone)]
pub struct ImageRunStats {
    /// Frames delivered per second.
    pub fps: f64,
    /// Average wire bytes per frame.
    pub avg_wire_bytes: f64,
    /// Plan installations performed during the run.
    pub plan_installs: u64,
}

/// The fixed plan corresponding to a manual version.
///
/// # Panics
///
/// Panics if called for the adaptive version.
pub fn fixed_plan(version: ImageVersion, handler: &mpart::PartitionedHandler) -> Vec<PseId> {
    match version {
        ImageVersion::ShipRaw => vec![handler.entry_pse().expect("entry PSE")],
        ImageVersion::ResizeAtServer => handler
            .analysis()
            .pses()
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.edge.is_entry())
            .map(|(i, _)| i)
            .collect(),
        ImageVersion::MethodPartitioning => {
            panic!("the adaptive version has no fixed plan")
        }
    }
}

/// Knobs for ablation studies on the image experiment.
#[derive(Debug, Clone, Copy)]
pub struct ImageOptions {
    /// Register the `ImageData` self-describing `sizeOf` (fast profiling)
    /// or fall back to generic graph-walk sizing.
    pub self_sizers: bool,
    /// Feedback trigger for the adaptive version.
    pub trigger: TriggerPolicy,
    /// Profile every Nth message.
    pub sample_period: u64,
    /// EWMA smoothing factor.
    pub ewma_alpha: f64,
}

impl Default for ImageOptions {
    fn default() -> Self {
        ImageOptions {
            self_sizers: true,
            trigger: TriggerPolicy::Rate(1),
            sample_period: 1,
            ewma_alpha: 0.5,
        }
    }
}

/// Builds a ready-to-run session for `version` on the Table 2 testbed.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn image_session(version: ImageVersion) -> Result<SimSession, IrError> {
    image_session_with(version, ImageOptions::default())
}

/// Like [`image_session`] with explicit ablation knobs.
///
/// # Errors
///
/// Propagates analysis errors.
pub fn image_session_with(
    version: ImageVersion,
    options: ImageOptions,
) -> Result<SimSession, IrError> {
    let program = image_program()?;
    let model: Arc<dyn CostModel> = if options.self_sizers {
        image_cost_model(&program)
    } else {
        Arc::new(DataSizeModel::new())
    };
    let sender = server_builtins(&program);
    let receiver = client_builtins(&program);
    match version {
        ImageVersion::MethodPartitioning => SimSession::adaptive(
            program,
            "push",
            model,
            sender,
            receiver,
            image_testbed(options.trigger)
                .with_profile_sampling(options.sample_period)
                .with_ewma_alpha(options.ewma_alpha),
        ),
        fixed => {
            let probe = mpart::PartitionedHandler::analyze(
                Arc::clone(&program),
                "push",
                image_cost_model(&program),
            )?;
            let plan = fixed_plan(fixed, &probe);
            SimSession::fixed(
                program,
                "push",
                model,
                &plan,
                sender,
                receiver,
                image_testbed(TriggerPolicy::Never),
            )
        }
    }
}

/// Runs `version` against `scenario` for `frames` messages; deterministic
/// under `seed`.
///
/// # Errors
///
/// Propagates analysis/runtime errors.
pub fn run_image_experiment(
    version: ImageVersion,
    scenario: ImageScenario,
    frames: usize,
    seed: u64,
) -> Result<ImageRunStats, IrError> {
    run_image_experiment_with(version, scenario, frames, seed, ImageOptions::default())
}

/// Like [`run_image_experiment`] with explicit ablation knobs.
///
/// # Errors
///
/// Propagates analysis/runtime errors.
pub fn run_image_experiment_with(
    version: ImageVersion,
    scenario: ImageScenario,
    frames: usize,
    seed: u64,
    options: ImageOptions,
) -> Result<ImageRunStats, IrError> {
    let program = image_program()?;
    let mut session = image_session_with(version, options)?;
    for side in scenario.sides(frames, seed) {
        let program_ref = Arc::clone(&program);
        session.deliver(move |ctx| make_frame(&program_ref, ctx, side))?;
    }
    let total_bytes: usize = session.reports().iter().map(|r| r.wire_bytes).sum();
    Ok(ImageRunStats {
        fps: session.fps(),
        avg_wire_bytes: total_bytes as f64 / frames.max(1) as f64,
        plan_installs: session.plan_installs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `side × side` byte buffer `len` bytes long, resized to
    /// `w × h` by `resize_impl` and by the per-pixel reference loop.
    fn both_resizes(side: i64, len: usize, (w, h): (i64, i64)) -> [Result<Vec<u8>, IrError>; 2] {
        let program = image_program().unwrap();
        let classes = &program.classes;
        let mut ctx = ExecCtx::new(&program);
        let px: Vec<u8> = (0..len).map(|i| (i * 37 + i / 7) as u8).collect();
        let buff = ctx.heap.alloc_array_from(ArrayData::Byte(px));
        let class = classes.id("ImageData").unwrap();
        let decl = classes.decl(class);
        let img = ctx.heap.alloc_object(classes, class);
        ctx.heap.set_field(img, decl.field("width").unwrap(), Value::Int(side)).unwrap();
        ctx.heap.set_field(img, decl.field("height").unwrap(), Value::Int(side)).unwrap();
        ctx.heap.set_field(img, decl.field("buff").unwrap(), Value::Ref(buff)).unwrap();
        let read = |heap: &Heap, out: ObjRef| match heap.cell(out).unwrap() {
            HeapCell::Array(ArrayData::Byte(v)) => v.clone(),
            other => panic!("not a byte array: {other:?}"),
        };
        let args = [Value::Ref(img), Value::Int(w), Value::Int(h)];
        let fast = resize_impl(classes, &mut ctx.heap, &args).map(|v| {
            let out = v.as_ref("out").unwrap();
            let out_buff = ctx.heap.field(out, decl.field("buff").unwrap()).unwrap();
            read(&ctx.heap, out_buff.as_ref("buff").unwrap())
        });
        let out_buff = ctx.heap.alloc_array(ElemType::Byte, (w * h) as usize);
        let slow = resize_values(&mut ctx.heap, buff, out_buff, (side, side), (w, h))
            .map(|()| read(&ctx.heap, out_buff));
        [fast, slow]
    }

    #[test]
    fn byte_slice_resize_matches_the_per_pixel_loop() {
        let sides = [1i64, 79, 80, 160, 200, 317];
        for &side in &sides {
            for &target in &sides {
                let [fast, slow] = both_resizes(side, (side * side) as usize, (target, target));
                assert_eq!(fast.unwrap(), slow.unwrap(), "{side} -> {target}");
            }
            let [fast, slow] = both_resizes(side, (side * side) as usize, (DISPLAY_SIDE, 3));
            assert_eq!(fast.unwrap(), slow.unwrap(), "{side} -> {DISPLAY_SIDE}x3");
        }
    }

    #[test]
    fn short_byte_buffer_fails_like_the_per_pixel_loop() {
        let [fast, slow] = both_resizes(80, 80 * 80 - 5, (DISPLAY_SIDE, DISPLAY_SIDE));
        let err = fast.unwrap_err();
        assert!(matches!(err, IrError::Bounds { len: 6395, .. }), "{err:?}");
        assert_eq!(err, slow.unwrap_err());
    }

    #[test]
    fn scenarios_generate_expected_sides() {
        assert!(ImageScenario::Small.sides(5, 0).iter().all(|&s| s == 80));
        assert!(ImageScenario::Large.sides(5, 0).iter().all(|&s| s == 200));
        let mixed = ImageScenario::Mixed.sides(200, 42);
        assert_eq!(mixed.len(), 200);
        assert!(mixed.contains(&80) && mixed.contains(&200));
        assert_eq!(mixed, ImageScenario::Mixed.sides(200, 42), "deterministic");
    }

    #[test]
    fn handler_analysis_finds_three_pses() {
        let program = image_program().unwrap();
        let h = mpart::PartitionedHandler::analyze(
            Arc::clone(&program),
            "push",
            image_cost_model(&program),
        )
        .unwrap();
        assert_eq!(h.analysis().pses().len(), 3, "{:?}", h.analysis().pses());
        assert!(h.entry_pse().is_some());
    }

    #[test]
    fn self_sizer_matches_frame_size() {
        let program = image_program().unwrap();
        let sizers = image_sizers(&program);
        let mut ctx = ExecCtx::new(&program);
        let frame = make_frame(&program, &mut ctx, 80).unwrap();
        let size = sizers.size_of(&ctx.heap, &program.classes, &frame[0]).unwrap();
        assert!(size > 6400 && size < 6500, "{size}");
    }

    #[test]
    fn small_frames_favor_ship_raw() {
        let raw = run_image_experiment(ImageVersion::ShipRaw, ImageScenario::Small, 40, 1).unwrap();
        let server =
            run_image_experiment(ImageVersion::ResizeAtServer, ImageScenario::Small, 40, 1)
                .unwrap();
        assert!(
            raw.fps > server.fps * 1.5,
            "raw {} fps vs resize-at-server {} fps",
            raw.fps,
            server.fps
        );
    }

    #[test]
    fn large_frames_favor_resize_at_server() {
        let raw = run_image_experiment(ImageVersion::ShipRaw, ImageScenario::Large, 40, 1).unwrap();
        let server =
            run_image_experiment(ImageVersion::ResizeAtServer, ImageScenario::Large, 40, 1)
                .unwrap();
        assert!(
            server.fps > raw.fps * 1.4,
            "resize-at-server {} fps vs raw {} fps",
            server.fps,
            raw.fps
        );
    }

    #[test]
    fn method_partitioning_tracks_the_best_manual_version() {
        for scenario in [ImageScenario::Small, ImageScenario::Large] {
            let mp =
                run_image_experiment(ImageVersion::MethodPartitioning, scenario, 60, 2).unwrap();
            let raw = run_image_experiment(ImageVersion::ShipRaw, scenario, 60, 2).unwrap();
            let server =
                run_image_experiment(ImageVersion::ResizeAtServer, scenario, 60, 2).unwrap();
            let best = raw.fps.max(server.fps);
            assert!(
                mp.fps > best * 0.9,
                "{scenario:?}: MP {} fps vs best manual {} fps",
                mp.fps,
                best
            );
        }
    }

    #[test]
    fn per_subscriber_display_customization() {
        // Two clients with different displays subscribe their own handlers;
        // each modulator adapts to its own client.
        let base = image_program().unwrap();
        let big = image_program_custom(160).unwrap();
        let small = image_program_custom(40).unwrap();
        // Handlers live in separate programs; one session per subscriber
        // program, fed the same frames.
        let run = |program: Arc<mpart_ir::Program>, frames: &[i64]| -> (usize, i64) {
            let mut session = SimSession::adaptive(
                Arc::clone(&program),
                "push",
                image_cost_model(&program),
                server_builtins(&program),
                client_builtins(&program),
                image_testbed(TriggerPolicy::Rate(1)),
            )
            .unwrap();
            let mut last_bytes = 0usize;
            for &side in frames {
                let p = Arc::clone(&program);
                last_bytes =
                    session.deliver(move |ctx| make_frame(&p, ctx, side)).unwrap().wire_bytes;
            }
            (last_bytes, frames[frames.len() - 1])
        };
        let frames = [120i64; 8];
        let (big_bytes, _) = run(big, &frames);
        let (small_bytes, _) = run(small, &frames);
        // The 40x40 client converges to tiny resized payloads; the 160x160
        // client prefers the raw 120x120 frame (smaller than its resize).
        assert!(small_bytes < 2200, "small display ships thumbnails: {small_bytes}");
        assert!(big_bytes > 14_000, "big display ships the raw 120x120 frame: {big_bytes}");
        drop(base);
    }

    #[test]
    fn custom_display_rejects_nonpositive() {
        assert!(image_program_custom(0).is_err());
        assert!(image_program_custom(-4).is_err());
    }

    #[test]
    fn method_partitioning_wins_on_mixed() {
        let mp =
            run_image_experiment(ImageVersion::MethodPartitioning, ImageScenario::Mixed, 120, 3)
                .unwrap();
        let raw =
            run_image_experiment(ImageVersion::ShipRaw, ImageScenario::Mixed, 120, 3).unwrap();
        let server =
            run_image_experiment(ImageVersion::ResizeAtServer, ImageScenario::Mixed, 120, 3)
                .unwrap();
        assert!(
            mp.fps > raw.fps && mp.fps > server.fps,
            "MP {} vs raw {} vs server {}",
            mp.fps,
            raw.fps,
            server.fps
        );
        assert!(mp.plan_installs >= 2, "MP adapted: {}", mp.plan_installs);
    }
}
