//! The synthetic app generator.
//!
//! Given a seed and a [`GenConfig`], deterministically produces an [`App`]:
//! a class hierarchy over the modeled framework, a layered call graph (with
//! occasional recursion), method bodies mixing all nine statement kinds and
//! all seventeen expression kinds, components with lifecycle callbacks, and
//! a manifest. Optionally plants a source→sink data-flow ("leak") for the
//! vetting layer to find.
//!
//! Generation is two-phase:
//!
//! 1. **Planning** — class names, fields, and method *signatures* with
//!    call-graph layers are decided first, so that any body can call any
//!    planned method.
//! 2. **Body generation** — a budgeted shape grammar emits straight-line
//!    statements, `if` diamonds, loops (back edges drive the worklist's
//!    fixed-point revisits), and switches (fan-out drives worklist width).

use crate::app::{App, Category};
use crate::config::GenConfig;
use crate::framework::{ApiRole, Framework};
use crate::manifest::{Component, ComponentKind, IntentFilter, Manifest, Permission};
use crate::rng::{Rng, Zipf};
use gdroid_ir::{
    BinOp, CallKind, ClassId, CmpKind, Expr, FieldId, JType, Lhs, Literal, MethodBuilder,
    MethodKind, MonitorOp, ProgramBuilder, Signature, Stmt, Symbol, UnOp, VarId, Visibility,
};

/// A planned (not yet generated) method.
#[derive(Clone, Debug)]
struct PlannedMethod {
    class: ClassId,
    name: String,
    /// Reference-typed parameter count (besides `this`).
    ref_params: usize,
    /// Primitive parameter count.
    prim_params: usize,
    returns_ref: bool,
    is_static: bool,
    /// Call-graph layer; bodies call strictly lower layers (except
    /// recursion), lifecycle callbacks sit above all layers.
    layer: usize,
    lifecycle: bool,
}

/// A pool the generator draws from with Zipf-skewed popularity: the
/// entries plus the inverse-CDF table over their ranks. Every such pool is
/// complete before its first draw, so the table is built exactly once,
/// when the pool is sealed, and lives and dies with it.
struct ZipfPool<T> {
    items: Vec<T>,
    ranks: Zipf,
}

impl<T: Copy> ZipfPool<T> {
    fn new(items: Vec<T>, s: f64) -> Self {
        let ranks = Zipf::new(items.len(), s);
        ZipfPool { items, ranks }
    }

    /// One skewed draw (one uniform from `rng`); the pool must be non-empty.
    fn draw(&self, rng: &mut Rng) -> T {
        self.items[rng.zipf(&self.ranks)]
    }
}

impl<T> std::ops::Deref for ZipfPool<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

// Zipf exponents of the generator's four skewed draws.
/// Which class a reference field's declared type names.
const FIELD_TYPE_SKEW: f64 = 1.1;
/// Which class a `new` expression instantiates.
const NEW_CLASS_SKEW: f64 = 1.0;
/// Which of the pool's reference fields a method body touches.
const METHOD_FIELD_SKEW: f64 = 0.8;
/// Which method of the target layer an app-method call picks.
const CALLEE_SKEW: f64 = 0.75;

/// Generates one app from a seed.
pub fn generate_app(index: usize, seed: u64, config: &GenConfig) -> App {
    let mut rng = Rng::new(seed);
    let category = Category::ALL[rng.weighted(&Category::weights())];
    let mut pb = ProgramBuilder::new();
    let fw = Framework::install(&mut pb);

    let gen = AppGen { rng, config, category, index };
    gen.run(pb, fw, seed)
}

struct AppGen<'a> {
    rng: Rng,
    config: &'a GenConfig,
    category: Category,
    index: usize,
}

impl<'a> AppGen<'a> {
    fn run(mut self, mut pb: ProgramBuilder, fw: Framework, seed: u64) -> App {
        let cfg = self.config;
        let n_classes = self
            .rng
            .log_normal_int(
                cfg.classes_median * self.category.size_factor() * cfg.scale,
                cfg.classes_sigma,
                2,
                4000,
            )
            .max(2);

        // --- plan classes ------------------------------------------------
        let n_components = self.rng.range(cfg.components.0, cfg.components.1).min(n_classes);
        let mut classes: Vec<ClassId> = Vec::with_capacity(n_classes);
        let mut component_info: Vec<(ClassId, ComponentKind)> = Vec::new();
        for ci in 0..n_classes {
            let name = format!("com/gen/app{}/C{ci}", self.index);
            let class = if ci < n_components {
                // Component classes extend a framework base; the first is
                // always the launcher activity.
                let kind = if ci == 0 {
                    ComponentKind::Activity
                } else {
                    *self.rng.pick(&ComponentKind::ALL)
                };
                let base = fw.component_bases
                    [ComponentKind::ALL.iter().position(|&k| k == kind).expect("kind in ALL")];
                let c = pb.class(&name).extends(base).build();
                component_info.push((c, kind));
                c
            } else if !classes.is_empty() && self.rng.chance(0.15) {
                // In-app inheritance.
                let sup = *self.rng.pick(&classes);
                pb.class(&name).extends(sup).build()
            } else {
                pb.class(&name).extends(fw.object).build()
            };
            classes.push(class);
        }

        // --- plan fields --------------------------------------------------
        let classes = ZipfPool::new(classes, FIELD_TYPE_SKEW);
        let mut ref_fields: Vec<FieldId> = Vec::new();
        let mut prim_fields: Vec<FieldId> = Vec::new();
        let mut static_ref_fields: Vec<FieldId> = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            let n_fields = self.rng.range(cfg.fields_per_class.0, cfg.fields_per_class.1);
            for fi in 0..n_fields {
                let is_ref = self.rng.chance(cfg.ref_field_fraction);
                let is_static = self.rng.chance(0.12);
                let ty = if is_ref {
                    // Field types point at other app classes or Object.
                    if self.rng.chance(0.6) && !classes.is_empty() {
                        let target = classes.draw(&mut self.rng);
                        JType::Object(pb.program().classes[target].name)
                    } else {
                        JType::Object(fw.object_sym)
                    }
                } else {
                    JType::Int
                };
                let fid = pb.field(class, &format!("f{ci}_{fi}"), ty, is_static);
                match (is_ref, is_static) {
                    (true, true) => static_ref_fields.push(fid),
                    (true, false) => ref_fields.push(fid),
                    (false, _) => prim_fields.push(fid),
                }
            }
        }

        let ref_fields = ZipfPool::new(ref_fields, METHOD_FIELD_SKEW);

        // --- plan methods -------------------------------------------------
        let mut plan: Vec<PlannedMethod> = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            let n_methods = self.rng.range(cfg.methods_per_class.0, cfg.methods_per_class.1);
            for mi in 0..n_methods {
                let ref_params = self.rng.range(0, cfg.max_params.min(2));
                let prim_params = self.rng.range(0, cfg.max_params - ref_params);
                plan.push(PlannedMethod {
                    class,
                    name: format!("m{ci}_{mi}"),
                    ref_params,
                    prim_params,
                    returns_ref: self.rng.chance(0.4),
                    is_static: self.rng.chance(0.25),
                    layer: self.rng.range(0, cfg.layers - 1),
                    lifecycle: false,
                });
            }
        }
        // Lifecycle callbacks for component classes.
        for &(class, kind) in &component_info {
            for cb in kind.lifecycle_callbacks() {
                plan.push(PlannedMethod {
                    class,
                    name: (*cb).to_owned(),
                    ref_params: 1, // Intent/Bundle-style argument
                    prim_params: 0,
                    returns_ref: false,
                    is_static: false,
                    layer: cfg.layers, // above all plain layers
                    lifecycle: true,
                });
            }
        }

        // --- shared-library packages --------------------------------------
        // Each app draws K distinct packages from the corpus-wide pool.
        // Package bodies are generated from the *pool* seed (not the app
        // seed), so a package is byte-identical — up to symbol/field
        // numbering — in every app that bundles it. Library plan entries
        // are appended after the app's so app bodies can call into them
        // via the layer lanes; library bodies are emitted inside
        // `gen_lib_package` against package-local state only.
        let app_plan_len = plan.len();
        if cfg.lib_packages_per_app > 0 && cfg.lib_pool_size > 0 {
            let k = cfg.lib_packages_per_app.min(cfg.lib_pool_size);
            let mut picks: Vec<usize> = Vec::with_capacity(k);
            while picks.len() < k {
                let c = self.rng.below(cfg.lib_pool_size as u64) as usize;
                if !picks.contains(&c) {
                    picks.push(c);
                }
            }
            picks.sort_unstable();
            for pkg in picks {
                let pkg_plan = self.gen_lib_package(&mut pb, &fw, pkg);
                plan.extend(pkg_plan);
            }
        }

        // Pre-compute signatures for call generation.
        let obj_ty = JType::Object(fw.object_sym);
        let sigs: Vec<Signature> = plan
            .iter()
            .map(|pm| {
                let mut params = vec![obj_ty; pm.ref_params];
                params.extend(std::iter::repeat_n(JType::Int, pm.prim_params));
                Signature::new(
                    pb.program().classes[pm.class].name,
                    pb.intern(&pm.name),
                    params,
                    if pm.returns_ref { obj_ty } else { JType::Void },
                )
            })
            .collect();
        let by_layer = callees_by_layer(&plan, cfg.layers);

        // Decide whether this app leaks, and through which component.
        let leaky = self.rng.chance(cfg.leak_prob);

        // --- generate bodies ----------------------------------------------
        // App bodies allocate over every class in the program (framework,
        // app, and bundled libraries); the pool is fixed once planning is
        // complete, so hoisting it out of the per-body loop preserves the
        // historical draw sequence exactly.
        let app_pool =
            ZipfPool::new(pb.program().classes.iter().map(|c| c.name).collect(), NEW_CLASS_SKEW);
        // The first lifecycle callback (in plan order) of a leaky app gets
        // the planted source→sink flow — exactly one plant per app.
        let leak_site = if leaky { plan.iter().position(|p| p.lifecycle) } else { None };
        let mut uses_source_api = false;
        for (i, pm) in plan.iter().enumerate().take(app_plan_len) {
            let budget = self.rng.log_normal_int(cfg.stmts_median, cfg.stmts_sigma, 3, 320);
            let plant_leak = leak_site == Some(i);
            let used_source = self.gen_body(
                &mut pb,
                pm,
                &sigs[i],
                &plan,
                &sigs,
                &by_layer,
                &fw,
                &ref_fields,
                &prim_fields,
                &static_ref_fields,
                budget,
                plant_leak,
                &app_pool,
            );
            uses_source_api |= used_source;
        }

        // --- manifest -------------------------------------------------------
        let mut permissions = vec![Permission::Internet];
        if uses_source_api {
            permissions.push(Permission::ReadPhoneState);
        }
        let extra = self.rng.range(0, 3);
        for _ in 0..extra {
            let p = *self.rng.pick(&Permission::ALL);
            if !permissions.contains(&p) {
                permissions.push(p);
            }
        }
        let components = component_info
            .iter()
            .enumerate()
            .map(|(i, &(class, kind))| Component {
                class: pb.program().classes[class].name,
                kind,
                exported: i == 0 || self.rng.chance(0.3),
                intent_filters: if i == 0 {
                    vec![IntentFilter { action: "android.intent.action.MAIN".into() }]
                } else {
                    Vec::new()
                },
            })
            .collect();

        let name = format!("com.gen.app{:04}", self.index);
        let program = pb.finish();
        // Unconditional (not debug_assert): corpus runs are release builds,
        // and an invalid program must never reach the kernels. Validation
        // is linear and cheap next to the analysis itself.
        let errors = gdroid_ir::validate_program(&program);
        assert!(
            errors.is_empty(),
            "generator produced invalid IR (seed {seed}): {:?}",
            errors.first()
        );
        App {
            name: name.clone(),
            category: self.category,
            seed,
            program,
            manifest: Manifest { package: name, components, permissions },
        }
    }

    /// Plans and generates one shared-library package from the pool seed.
    ///
    /// Everything inside runs on `Rng::new(lib_pool_seed).derive(pkg)` —
    /// independent of the app's rng state — and references only
    /// package-local classes, fields, and methods (plus the framework),
    /// so package `pkg` has the same structural content in every app of a
    /// corpus. Library classes all extend `Object` directly: no app class
    /// can alter CHA dispatch over them, which keeps the canonical method
    /// hash stable across apps. Returns the package's plan entries for the
    /// caller to append (app bodies call them via the layer lanes).
    fn gen_lib_package(
        &mut self,
        pb: &mut ProgramBuilder,
        fw: &Framework,
        pkg: usize,
    ) -> Vec<PlannedMethod> {
        let cfg = self.config;
        let pool_rng = Rng::new(cfg.lib_pool_seed).derive(pkg as u64);
        let saved_rng = std::mem::replace(&mut self.rng, pool_rng);

        // Classes.
        let n_classes =
            self.rng.range(cfg.lib_classes_per_package.0, cfg.lib_classes_per_package.1).max(1);
        let mut classes: Vec<ClassId> = Vec::with_capacity(n_classes);
        for ci in 0..n_classes {
            let name = format!("com/lib/p{pkg}/C{ci}");
            classes.push(pb.class(&name).extends(fw.object).build());
        }
        let classes = ZipfPool::new(classes, FIELD_TYPE_SKEW);

        // Fields (package-local pools).
        let mut ref_fields: Vec<FieldId> = Vec::new();
        let mut prim_fields: Vec<FieldId> = Vec::new();
        let mut static_ref_fields: Vec<FieldId> = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            let n_fields = self.rng.range(cfg.fields_per_class.0, cfg.fields_per_class.1);
            for fi in 0..n_fields {
                let is_ref = self.rng.chance(cfg.ref_field_fraction);
                let is_static = self.rng.chance(0.12);
                let ty = if is_ref {
                    if self.rng.chance(0.6) {
                        let target = classes.draw(&mut self.rng);
                        JType::Object(pb.program().classes[target].name)
                    } else {
                        JType::Object(fw.object_sym)
                    }
                } else {
                    JType::Int
                };
                let fid = pb.field(class, &format!("f{ci}_{fi}"), ty, is_static);
                match (is_ref, is_static) {
                    (true, true) => static_ref_fields.push(fid),
                    (true, false) => ref_fields.push(fid),
                    (false, _) => prim_fields.push(fid),
                }
            }
        }

        let ref_fields = ZipfPool::new(ref_fields, METHOD_FIELD_SKEW);

        // Method plan.
        let mut pkg_plan: Vec<PlannedMethod> = Vec::new();
        for (ci, &class) in classes.iter().enumerate() {
            let n_methods = self.rng.range(cfg.methods_per_class.0, cfg.methods_per_class.1);
            for mi in 0..n_methods {
                let ref_params = self.rng.range(0, cfg.max_params.min(2));
                let prim_params = self.rng.range(0, cfg.max_params - ref_params);
                pkg_plan.push(PlannedMethod {
                    class,
                    name: format!("m{ci}_{mi}"),
                    ref_params,
                    prim_params,
                    returns_ref: self.rng.chance(0.4),
                    is_static: self.rng.chance(0.25),
                    layer: self.rng.range(0, cfg.layers - 1),
                    lifecycle: false,
                });
            }
        }

        // Package-local signatures and layer lanes: library bodies only
        // call within the package (and the framework).
        let obj_ty = JType::Object(fw.object_sym);
        let pkg_sigs: Vec<Signature> = pkg_plan
            .iter()
            .map(|pm| {
                let mut params = vec![obj_ty; pm.ref_params];
                params.extend(std::iter::repeat_n(JType::Int, pm.prim_params));
                Signature::new(
                    pb.program().classes[pm.class].name,
                    pb.intern(&pm.name),
                    params,
                    if pm.returns_ref { obj_ty } else { JType::Void },
                )
            })
            .collect();
        let pkg_by_layer = callees_by_layer(&pkg_plan, cfg.layers);
        let mut pkg_pool: Vec<Symbol> = vec![fw.object_sym];
        pkg_pool.extend(classes.iter().map(|&c| pb.program().classes[c].name));
        let pkg_pool = ZipfPool::new(pkg_pool, NEW_CLASS_SKEW);

        // Bodies.
        for (i, pm) in pkg_plan.iter().enumerate() {
            let budget = self.rng.log_normal_int(cfg.stmts_median, cfg.stmts_sigma, 3, 320);
            self.gen_body(
                pb,
                pm,
                &pkg_sigs[i],
                &pkg_plan,
                &pkg_sigs,
                &pkg_by_layer,
                fw,
                &ref_fields,
                &prim_fields,
                &static_ref_fields,
                budget,
                false,
                &pkg_pool,
            );
        }

        self.rng = saved_rng;
        pkg_plan
    }

    // One method body. Returns whether a taint-source API was called.
    #[allow(clippy::too_many_arguments)]
    fn gen_body(
        &mut self,
        pb: &mut ProgramBuilder,
        pm: &PlannedMethod,
        _sig: &Signature,
        plan: &[PlannedMethod],
        sigs: &[Signature],
        by_layer: &[ZipfPool<usize>],
        fw: &Framework,
        ref_fields: &ZipfPool<FieldId>,
        prim_fields: &[FieldId],
        static_ref_fields: &[FieldId],
        budget: usize,
        plant_leak: bool,
        class_pool: &ZipfPool<Symbol>,
    ) -> bool {
        let cfg = self.config;
        let kind = if pm.lifecycle {
            MethodKind::LifecycleCallback
        } else if pm.is_static {
            MethodKind::Static
        } else {
            MethodKind::Instance
        };
        let mut mb = pb.method_from_plan(pm.class, &pm.name, kind);
        let obj_ty = JType::Object(fw.object_sym);

        // Parameters.
        let mut refs: Vec<VarId> = Vec::new();
        let mut prims: Vec<VarId> = Vec::new();
        if !pm.is_static && !matches!(kind, MethodKind::Static) {
            refs.push(mb.this());
        }
        for i in 0..pm.ref_params {
            refs.push(mb.param(&format!("rp{i}"), obj_ty));
        }
        for i in 0..pm.prim_params {
            prims.push(mb.param(&format!("pp{i}"), JType::Int));
        }
        mb.set_returns(if pm.returns_ref { obj_ty } else { JType::Void });

        // Locals.
        let n_ref = self.rng.range(cfg.ref_locals.0, cfg.ref_locals.1);
        for i in 0..n_ref {
            refs.push(mb.local(&format!("r{i}"), obj_ty));
        }
        let n_prim = self.rng.range(cfg.prim_locals.0, cfg.prim_locals.1);
        for i in 0..n_prim {
            prims.push(mb.local(&format!("p{i}"), JType::Int));
        }
        let arr = mb.local("arr", JType::object_array(fw.object_sym));

        // Initialize a couple of locals so reads are meaningful.
        let seed_ref = refs[self.rng.below(refs.len() as u64) as usize];
        let cls = class_pool.draw(&mut self.rng);
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(seed_ref),
            rhs: Expr::New { ty: JType::Object(cls) },
        });
        let seed_prim = prims[self.rng.below(prims.len() as u64) as usize];
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(seed_prim), rhs: Expr::Lit(Literal::Int(0)) });
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(arr),
            rhs: Expr::New { ty: JType::object_array(fw.object_sym) },
        });

        // Real methods touch a handful of distinct fields; pre-picking a
        // small per-method field set keeps the analysis' heap-slot pool at
        // Table I scale (≈116 slots) without type bookkeeping.
        let n_method_fields = self.rng.range(2, 6).min(ref_fields.len().max(1));
        let mut method_fields: Vec<FieldId> = Vec::with_capacity(n_method_fields);
        while method_fields.len() < n_method_fields && !ref_fields.is_empty() {
            let f = ref_fields.draw(&mut self.rng);
            if !method_fields.contains(&f) {
                method_fields.push(f);
            }
        }

        let mut ctx = BodyCtx {
            refs,
            prims,
            arr,
            used_source: false,
            layer: pm.layer,
            lifecycle: pm.lifecycle,
            class_pool,
        };

        // Planted leak: t = <source>(); Log.d(tag, t) — routed through a
        // field store/load so the flow needs real points-to reasoning.
        if plant_leak {
            self.emit_leak(&mut mb, &mut ctx, fw, &method_fields);
        }

        self.gen_block(
            &mut mb,
            &mut ctx,
            plan,
            sigs,
            by_layer,
            fw,
            &method_fields,
            prim_fields,
            static_ref_fields,
            0,
            budget,
        );

        // Final return.
        if pm.returns_ref {
            let v = *self.rng.pick(&ctx.refs);
            mb.stmt(Stmt::Return { var: Some(v) });
        } else {
            mb.stmt(Stmt::Return { var: None });
        }
        mb.build();
        ctx.used_source
    }

    fn emit_leak(
        &mut self,
        mb: &mut MethodBuilder<'_>,
        ctx: &mut BodyCtx<'_>,
        fw: &Framework,
        ref_fields: &[FieldId],
    ) {
        let src = self.rng.pick(fw.api_with_role(ApiRole::Source));
        let snk = self.rng.pick(fw.api_with_role(ApiRole::Sink));
        let tainted = ctx.refs[0];
        let recv = *self.rng.pick(&ctx.refs);
        let mut args = vec![recv];
        args.extend(std::iter::repeat_n(recv, src.sig.params.len()));
        mb.stmt(Stmt::Call {
            ret: Some(tainted),
            kind: CallKind::Virtual,
            sig: src.sig.clone(),
            args,
        });
        // Route through a field when one exists: this.f = tainted; t2 = this.f.
        let via = if !ref_fields.is_empty() && ctx.refs.len() >= 2 {
            let f = ref_fields[self.rng.below(ref_fields.len() as u64) as usize];
            let holder = ctx.refs[1];
            mb.stmt(Stmt::Assign {
                lhs: Lhs::Field { base: holder, field: f },
                rhs: Expr::Var(tainted),
            });
            let out = *self.rng.pick(&ctx.refs);
            mb.stmt(Stmt::Assign {
                lhs: Lhs::Var(out),
                rhs: Expr::Access { base: holder, field: f },
            });
            out
        } else {
            tainted
        };
        // The tainted value goes in the first parameter slot; for
        // zero-parameter instance sinks it becomes the receiver.
        let mut sink_args = Vec::new();
        if snk.is_instance {
            if snk.sig.params.is_empty() {
                sink_args.push(via);
            } else {
                sink_args.push(*self.rng.pick(&ctx.refs));
            }
        }
        if !snk.sig.params.is_empty() {
            sink_args.push(via);
        }
        while sink_args.len() < snk.sig.params.len() + usize::from(snk.is_instance) {
            sink_args.push(*self.rng.pick(&ctx.refs));
        }
        mb.stmt(Stmt::Call {
            ret: None,
            kind: if snk.is_instance { CallKind::Virtual } else { CallKind::Static },
            sig: snk.sig.clone(),
            args: sink_args,
        });
        ctx.used_source = true;
    }

    /// Emits a block of roughly `budget` statements at nesting `depth`.
    #[allow(clippy::too_many_arguments)]
    fn gen_block(
        &mut self,
        mb: &mut MethodBuilder<'_>,
        ctx: &mut BodyCtx<'_>,
        plan: &[PlannedMethod],
        sigs: &[Signature],
        by_layer: &[ZipfPool<usize>],
        fw: &Framework,
        ref_fields: &[FieldId],
        prim_fields: &[FieldId],
        static_ref_fields: &[FieldId],
        depth: usize,
        budget: usize,
    ) {
        let cfg = self.config;
        let mut remaining = budget;
        while remaining > 0 {
            let can_nest = depth < 3 && remaining >= 5;
            let weights = if can_nest {
                [cfg.simple_weight, cfg.branch_weight, cfg.loop_weight, cfg.switch_weight]
            } else {
                [1, 0, 0, 0]
            };
            match self.rng.weighted(&weights) {
                // ---- straight-line statement -----------------------------
                0 => {
                    self.emit_simple(
                        mb,
                        ctx,
                        plan,
                        sigs,
                        by_layer,
                        fw,
                        ref_fields,
                        prim_fields,
                        static_ref_fields,
                    );
                    remaining -= 1;
                }
                // ---- if diamond -------------------------------------------
                1 => {
                    let inner = (remaining - 2).min(remaining / 2).max(1);
                    let cond = *self.rng.pick(&ctx.prims);
                    let if_at = mb.stmt(Stmt::If { cond, target: gdroid_ir::StmtIdx(0) });
                    // then-branch
                    let then_budget = inner / 2 + 1;
                    self.gen_block(
                        mb,
                        ctx,
                        plan,
                        sigs,
                        by_layer,
                        fw,
                        ref_fields,
                        prim_fields,
                        static_ref_fields,
                        depth + 1,
                        then_budget,
                    );
                    let goto_at = mb.stmt(Stmt::Goto { target: gdroid_ir::StmtIdx(0) });
                    let else_start = mb.next_idx();
                    mb.patch_target(if_at, else_start).expect("if_at is an If");
                    let else_budget = inner - then_budget.min(inner);
                    if else_budget > 0 {
                        self.gen_block(
                            mb,
                            ctx,
                            plan,
                            sigs,
                            by_layer,
                            fw,
                            ref_fields,
                            prim_fields,
                            static_ref_fields,
                            depth + 1,
                            else_budget,
                        );
                    } else {
                        mb.stmt(Stmt::Empty);
                    }
                    let end = mb.next_idx();
                    mb.patch_target(goto_at, end).expect("goto_at is a Goto");
                    remaining = remaining.saturating_sub(inner + 2);
                }
                // ---- loop ---------------------------------------------------
                2 => {
                    let inner = (remaining - 3).min(remaining / 2).max(1);
                    let i_var = *self.rng.pick(&ctx.prims);
                    let cond = *self.rng.pick(&ctx.prims);
                    mb.stmt(Stmt::Assign { lhs: Lhs::Var(i_var), rhs: Expr::Lit(Literal::Int(0)) });
                    let head = mb.next_idx();
                    let exit_at = mb.stmt(Stmt::If { cond, target: gdroid_ir::StmtIdx(0) });
                    self.gen_block(
                        mb,
                        ctx,
                        plan,
                        sigs,
                        by_layer,
                        fw,
                        ref_fields,
                        prim_fields,
                        static_ref_fields,
                        depth + 1,
                        inner,
                    );
                    mb.stmt(Stmt::Assign {
                        lhs: Lhs::Var(i_var),
                        rhs: Expr::Binary { op: BinOp::Add, lhs: i_var, rhs: cond },
                    });
                    mb.stmt(Stmt::Goto { target: head });
                    let end = mb.next_idx();
                    mb.patch_target(exit_at, end).expect("exit_at is an If");
                    remaining = remaining.saturating_sub(inner + 4);
                }
                // ---- switch -------------------------------------------------
                _ => {
                    let n_cases = self.rng.range(3, 8);
                    let inner = (remaining - 2).min(remaining / 2).max(n_cases);
                    let scrut = *self.rng.pick(&ctx.prims);
                    let sw_at = mb.stmt(Stmt::Switch {
                        var: scrut,
                        targets: Vec::new(),
                        default: gdroid_ir::StmtIdx(0),
                    });
                    let mut case_starts = Vec::with_capacity(n_cases);
                    let mut gotos = Vec::with_capacity(n_cases);
                    // Equal arm lengths: the arms' frontiers reach the
                    // reconvergence node in the same worklist round, so the
                    // join is inserted once per arm — the repetition the
                    // paper's Fig. 7 (node N33) shows MER's merge removing.
                    let per_case = (inner / n_cases).max(1);
                    for _ in 0..n_cases {
                        case_starts.push(mb.next_idx());
                        self.gen_block(
                            mb,
                            ctx,
                            plan,
                            sigs,
                            by_layer,
                            fw,
                            ref_fields,
                            prim_fields,
                            static_ref_fields,
                            depth + 1,
                            per_case,
                        );
                        gotos.push(mb.stmt(Stmt::Goto { target: gdroid_ir::StmtIdx(0) }));
                    }
                    let end = mb.next_idx();
                    for g in gotos {
                        mb.patch_target(g, end).expect("g is a Goto");
                    }
                    // Default falls to end; patch the switch statement.
                    let default = end;
                    let targets = case_starts;
                    mb.replace_switch(sw_at, scrut, targets, default).expect("sw_at is a Switch");
                    remaining = remaining.saturating_sub(inner + 2 + n_cases);
                }
            }
        }
    }

    /// Emits one straight-line statement, sampled to cover all expression
    /// kinds with realistic Android frequencies.
    #[allow(clippy::too_many_arguments)]
    fn emit_simple(
        &mut self,
        mb: &mut MethodBuilder<'_>,
        ctx: &mut BodyCtx<'_>,
        plan: &[PlannedMethod],
        sigs: &[Signature],
        by_layer: &[ZipfPool<usize>],
        fw: &Framework,
        ref_fields: &[FieldId],
        prim_fields: &[FieldId],
        static_ref_fields: &[FieldId],
    ) {
        if self.rng.chance(self.config.call_fraction) {
            self.emit_call(mb, ctx, plan, sigs, by_layer, fw);
            return;
        }
        let r = |s: &mut Self, c: &BodyCtx| *s.rng.pick(&c.refs);
        let p = |s: &mut Self, c: &BodyCtx| *s.rng.pick(&c.prims);
        let obj_ty = JType::Object(fw.object_sym);
        // Weighted mix of expression kinds: copies and field traffic
        // dominate real Dalvik code; the exotic kinds appear with low
        // weight so every partition is populated.
        let choice = self.rng.weighted(&[
            14, // 0: ref copy
            10, // 1: field read
            10, // 2: field write
            8,  // 3: new
            8,  // 4: prim literal
            6,  // 5: binary
            5,  // 6: string literal
            4,  // 7: static read
            3,  // 8: static write
            4,  // 9: array read
            4,  // 10: array write
            3,  // 11: cast
            2,  // 12: null
            2,  // 13: instanceof
            2,  // 14: length
            2,  // 15: unary
            2,  // 16: cmp
            1,  // 17: constclass
            1,  // 18: tuple
            1,  // 19: monitor pair
            2,  // 20: guarded throw + handler
            2,  // 21: primitive field traffic
            1,  // 22: nop
        ]);
        match choice {
            0 => {
                let (a, b) = (r(self, ctx), r(self, ctx));
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(a), rhs: Expr::Var(b) });
            }
            1 if !ref_fields.is_empty() => {
                let f = ref_fields[self.rng.below(ref_fields.len() as u64) as usize];
                let (dst, base) = (r(self, ctx), r(self, ctx));
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(dst), rhs: Expr::Access { base, field: f } });
            }
            2 if !ref_fields.is_empty() => {
                let f = ref_fields[self.rng.below(ref_fields.len() as u64) as usize];
                let (base, src) = (r(self, ctx), r(self, ctx));
                mb.stmt(Stmt::Assign { lhs: Lhs::Field { base, field: f }, rhs: Expr::Var(src) });
            }
            3 => {
                let dst = r(self, ctx);
                let cls = ctx.class_pool.draw(&mut self.rng);
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::Var(dst),
                    rhs: Expr::New { ty: JType::Object(cls) },
                });
            }
            4 => {
                let dst = p(self, ctx);
                let v = self.rng.below(1000) as i64;
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(dst), rhs: Expr::Lit(Literal::Int(v)) });
            }
            5 => {
                let (d, a, b) = (p(self, ctx), p(self, ctx), p(self, ctx));
                let op = *self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                ]);
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::Var(d),
                    rhs: Expr::Binary { op, lhs: a, rhs: b },
                });
            }
            6 => {
                let dst = r(self, ctx);
                let s = mb.intern(&format!("str{}", self.rng.below(64)));
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(dst), rhs: Expr::Lit(Literal::Str(s)) });
            }
            7 if !static_ref_fields.is_empty() => {
                let f = static_ref_fields[self.rng.below(static_ref_fields.len() as u64) as usize];
                let dst = r(self, ctx);
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(dst), rhs: Expr::StaticField { field: f } });
            }
            8 if !static_ref_fields.is_empty() => {
                let f = static_ref_fields[self.rng.below(static_ref_fields.len() as u64) as usize];
                let src = r(self, ctx);
                mb.stmt(Stmt::Assign { lhs: Lhs::StaticField { field: f }, rhs: Expr::Var(src) });
            }
            9 => {
                let (dst, i) = (r(self, ctx), p(self, ctx));
                let arr = ctx.arr;
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::Var(dst),
                    rhs: Expr::Indexing { base: arr, index: i },
                });
            }
            10 => {
                let (src, i) = (r(self, ctx), p(self, ctx));
                let arr = ctx.arr;
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::ArrayElem { base: arr, index: i },
                    rhs: Expr::Var(src),
                });
            }
            11 => {
                let (d, s) = (r(self, ctx), r(self, ctx));
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::Var(d),
                    rhs: Expr::Cast { ty: obj_ty, operand: s },
                });
            }
            12 => {
                let d = r(self, ctx);
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::Null });
            }
            13 => {
                let (d, s) = (p(self, ctx), r(self, ctx));
                mb.stmt(Stmt::Assign {
                    lhs: Lhs::Var(d),
                    rhs: Expr::InstanceOf { operand: s, ty: obj_ty },
                });
            }
            14 => {
                let d = p(self, ctx);
                let arr = ctx.arr;
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::Length { base: arr } });
            }
            15 => {
                let (d, s) = (p(self, ctx), p(self, ctx));
                let op = if self.rng.chance(0.5) { UnOp::Neg } else { UnOp::Not };
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::Unary { op, operand: s } });
            }
            16 => {
                let (d, a, b) = (p(self, ctx), p(self, ctx), p(self, ctx));
                let kind = *self.rng.pick(&[CmpKind::Cmp, CmpKind::Cmpl, CmpKind::Cmpg]);
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::Cmp { kind, lhs: a, rhs: b } });
            }
            17 => {
                let d = r(self, ctx);
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::ConstClass { ty: obj_ty } });
            }
            18 => {
                let d = r(self, ctx);
                let n = self.rng.range(2, 3.min(ctx.refs.len()));
                let elems = (0..n).map(|_| r(self, ctx)).collect();
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(d), rhs: Expr::Tuple { elems } });
            }
            19 => {
                let v = r(self, ctx);
                mb.stmt(Stmt::Monitor { op: MonitorOp::Enter, var: v });
                mb.stmt(Stmt::Monitor { op: MonitorOp::Exit, var: v });
            }
            20 => {
                // Guarded throw with a handler head — the Dalvik-style
                // lowering of a try/catch. The ICFG layer routes the throw
                // to the nearest following `exception` statement.
                let cond = p(self, ctx);
                let exc = r(self, ctx);
                let handler_var = r(self, ctx);
                let guard = mb.stmt(Stmt::If { cond, target: gdroid_ir::StmtIdx(0) });
                mb.stmt(Stmt::Throw { var: exc });
                let handler = mb.next_idx();
                mb.patch_target(guard, handler).expect("guard is an If");
                mb.stmt(Stmt::Assign { lhs: Lhs::Var(handler_var), rhs: Expr::Exception });
            }
            21 if !prim_fields.is_empty() => {
                // Primitive field traffic: identity for points-to, but a
                // real heap access for the GPU memory model.
                let f = prim_fields[self.rng.below(prim_fields.len() as u64) as usize];
                let (base, v) = (r(self, ctx), p(self, ctx));
                if self.rng.chance(0.5) {
                    mb.stmt(Stmt::Assign {
                        lhs: Lhs::Var(v),
                        rhs: Expr::Access { base, field: f },
                    });
                } else {
                    mb.stmt(Stmt::Assign { lhs: Lhs::Field { base, field: f }, rhs: Expr::Var(v) });
                }
            }
            _ => {
                mb.stmt(Stmt::Empty);
            }
        }
    }

    fn emit_call(
        &mut self,
        mb: &mut MethodBuilder<'_>,
        ctx: &mut BodyCtx<'_>,
        plan: &[PlannedMethod],
        sigs: &[Signature],
        by_layer: &[ZipfPool<usize>],
        fw: &Framework,
    ) {
        let use_api = self.rng.chance(self.config.api_call_fraction);
        if use_api {
            // Neutral API calls dominate; sources appear occasionally
            // (lifecycle methods of permission-holding apps call them).
            let role = if ctx.lifecycle && self.rng.chance(0.1) {
                ctx.used_source = true;
                ApiRole::Source
            } else {
                ApiRole::Neutral
            };
            let api = self.rng.pick(fw.api_with_role(role));
            let mut args = Vec::new();
            if api.is_instance {
                args.push(*self.rng.pick(&ctx.refs));
            }
            for _ in 0..api.sig.params.len() {
                args.push(*self.rng.pick(&ctx.refs));
            }
            let ret = if api.sig.ret.is_reference() && self.rng.chance(0.8) {
                Some(*self.rng.pick(&ctx.refs))
            } else {
                None
            };
            mb.stmt(Stmt::Call {
                ret,
                kind: if api.is_instance { CallKind::Virtual } else { CallKind::Static },
                sig: api.sig.clone(),
                args,
            });
            return;
        }
        // App-method call: target a lower layer, or (rarely) the same layer
        // to create recursion.
        let target_layer = if ctx.layer > 0 && !self.rng.chance(self.config.recursion_prob) {
            self.rng.below(ctx.layer as u64) as usize
        } else {
            ctx.layer.min(self.config.layers - 1)
        };
        let candidates = &by_layer[target_layer];
        if candidates.is_empty() {
            mb.stmt(Stmt::Empty);
            return;
        }
        let idx = candidates.draw(&mut self.rng);
        let callee = &plan[idx];
        let sig = sigs[idx].clone();
        let mut args = Vec::new();
        if !callee.is_static {
            args.push(*self.rng.pick(&ctx.refs));
        }
        for _ in 0..callee.ref_params {
            args.push(*self.rng.pick(&ctx.refs));
        }
        for _ in 0..callee.prim_params {
            args.push(*self.rng.pick(&ctx.prims));
        }
        let ret = if callee.returns_ref { Some(*self.rng.pick(&ctx.refs)) } else { None };
        mb.stmt(Stmt::Call {
            ret,
            kind: if callee.is_static { CallKind::Static } else { CallKind::Virtual },
            sig,
            args,
        });
    }
}

/// Callee candidates (indices into `plan`) per call-graph layer, each
/// sealed for the skewed callee draw of `emit_call`.
fn callees_by_layer(plan: &[PlannedMethod], layers: usize) -> Vec<ZipfPool<usize>> {
    let mut by_layer: Vec<Vec<usize>> = vec![Vec::new(); layers + 1];
    for (i, pm) in plan.iter().enumerate() {
        by_layer[pm.layer].push(i);
    }
    by_layer.into_iter().map(|lane| ZipfPool::new(lane, CALLEE_SKEW)).collect()
}

struct BodyCtx<'p> {
    refs: Vec<VarId>,
    prims: Vec<VarId>,
    arr: VarId,
    used_source: bool,
    layer: usize,
    lifecycle: bool,
    /// Classes `new` expressions draw from: the whole program for app
    /// bodies, the package (plus `Object`) for library bodies.
    class_pool: &'p ZipfPool<Symbol>,
}

/// Extension helpers the generator needs on [`MethodBuilder`] /
/// [`ProgramBuilder`].
trait BuilderExt<'a> {
    fn method_from_plan(
        &mut self,
        class: ClassId,
        name: &str,
        kind: MethodKind,
    ) -> MethodBuilder<'_>;
}

impl BuilderExt<'_> for ProgramBuilder {
    fn method_from_plan(
        &mut self,
        class: ClassId,
        name: &str,
        kind: MethodKind,
    ) -> MethodBuilder<'_> {
        self.method(class, name).kind(kind).visibility(Visibility::Public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::validate_program;

    #[test]
    fn generated_app_is_valid() {
        let app = generate_app(0, 12345, &GenConfig::tiny());
        let errors = validate_program(&app.program);
        assert!(errors.is_empty(), "validation errors: {:?}", &errors[..errors.len().min(5)]);
        assert!(app.program.methods.len() >= 4);
        assert!(!app.manifest.components.is_empty());
        assert!(app.manifest.launcher().is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_app(3, 999, &GenConfig::tiny());
        let b = generate_app(3, 999, &GenConfig::tiny());
        assert_eq!(a.program.methods.len(), b.program.methods.len());
        assert_eq!(a.program.total_statements(), b.program.total_statements());
        for (m1, m2) in a.program.methods.iter().zip(b.program.methods.iter()) {
            assert_eq!(m1.body.as_slice(), m2.body.as_slice());
        }
        assert_eq!(a.manifest, b.manifest);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_app(0, 1, &GenConfig::tiny());
        let b = generate_app(0, 2, &GenConfig::tiny());
        // Extremely unlikely to coincide.
        assert!(
            a.program.total_statements() != b.program.total_statements()
                || a.program.methods.len() != b.program.methods.len()
        );
    }

    #[test]
    fn covers_statement_kinds() {
        // Across a few apps, every statement kind should appear.
        use gdroid_ir::StmtKind;
        let mut seen = std::collections::HashSet::new();
        for seed in 0..6 {
            let app = generate_app(seed as usize, 7000 + seed, &GenConfig::small());
            for m in app.program.methods.iter() {
                for s in m.body.iter() {
                    seen.insert(s.kind());
                }
            }
        }
        for kind in StmtKind::ALL {
            assert!(seen.contains(&kind), "missing statement kind {kind:?}");
        }
    }

    #[test]
    fn covers_most_expression_kinds() {
        use gdroid_ir::ExprKind;
        let mut seen = std::collections::HashSet::new();
        for seed in 0..6 {
            let app = generate_app(seed as usize, 9000 + seed, &GenConfig::small());
            for m in app.program.methods.iter() {
                for s in m.body.iter() {
                    if let Stmt::Assign { rhs, .. } = s {
                        seen.insert(rhs.kind());
                    }
                }
            }
        }
        // CallRhs is only produced by the environment synthesis
        // (gdroid-icfg), so 16 of 17 here.
        let expected: Vec<ExprKind> =
            ExprKind::ALL.iter().copied().filter(|k| !matches!(k, ExprKind::CallRhs)).collect();
        for kind in expected {
            assert!(seen.contains(&kind), "missing expression kind {kind:?}");
        }
    }

    #[test]
    fn some_apps_leak() {
        let cfg = GenConfig::tiny();
        let leaky = (0..20)
            .filter(|&i| {
                let app = generate_app(i, 500 + i as u64, &cfg);
                app.manifest.has_permission(Permission::ReadPhoneState)
            })
            .count();
        assert!(leaky > 0, "no app used a source API in 20 draws");
        assert!(leaky < 20, "every app leaked");
    }

    #[test]
    fn library_pool_generates_valid_shared_packages() {
        let cfg = GenConfig::tiny().with_libraries(2, 3);
        let a = generate_app(0, 111, &cfg);
        let b = generate_app(1, 222, &cfg);
        let lib_classes = |app: &App| -> std::collections::HashSet<String> {
            app.program
                .classes
                .iter()
                .map(|c| app.program.interner.resolve(c.name).to_owned())
                .filter(|n| n.starts_with("com/lib/"))
                .collect()
        };
        for app in [&a, &b] {
            assert!(validate_program(&app.program).is_empty());
            assert!(!lib_classes(app).is_empty(), "no library classes generated");
        }
        // Two draws of 2 from a pool of 3 always overlap in ≥1 package.
        let (la, lb) = (lib_classes(&a), lib_classes(&b));
        assert!(la.intersection(&lb).next().is_some(), "apps share no library classes");
    }

    #[test]
    fn library_generation_is_deterministic() {
        let cfg = GenConfig::tiny().with_libraries(2, 4);
        let a = generate_app(5, 777, &cfg);
        let b = generate_app(5, 777, &cfg);
        assert_eq!(a.program.methods.len(), b.program.methods.len());
        for (m1, m2) in a.program.methods.iter().zip(b.program.methods.iter()) {
            assert_eq!(m1.body.as_slice(), m2.body.as_slice());
        }
    }

    #[test]
    fn call_graph_is_mostly_layered() {
        let app = generate_app(0, 424242, &GenConfig::small());
        // Sanity: there are calls to app methods (resolvable signatures).
        let mut app_calls = 0;
        for m in app.program.methods.iter() {
            for s in m.body.iter() {
                if let Stmt::Call { sig, .. } = s {
                    if app.program.method_by_sig(sig).is_some() {
                        app_calls += 1;
                    }
                }
            }
        }
        assert!(app_calls > 0, "no intra-app calls generated");
    }
}
