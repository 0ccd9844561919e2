//! Provenance acceptance tests: every remote call site of all five
//! evaluation apps carries a complete decision record (verdict, rule,
//! witness) under every Table 1 configuration, the applied verdicts match
//! the marshal-plan booleans, and the runtime auditor (DESIGN §10) never
//! contradicts a recorded `cycle_table_elided`, `reuse_enabled` or
//! `upcall` claim.

use corm::{run, OptConfig, RunOptions};
use corm_apps::ALL_APPS;

#[test]
fn every_site_has_full_provenance_under_all_rows() {
    for app in ALL_APPS {
        for (cfg_name, cfg) in OptConfig::TABLE_ROWS {
            let c = app.compile(cfg);
            assert!(!c.plans.sites.is_empty(), "{}: no remote call sites", app.name);
            for plan in c.plans.sites.values() {
                let ctx = format!("{} under {cfg_name}, site {}", app.name, plan.site.0);
                let aspects: Vec<&str> =
                    plan.provenance.decisions.iter().map(|d| d.aspect.as_str()).collect();
                for required in ["args.cycle", "ret.cycle", "ret.reuse", "dispatch"] {
                    assert!(aspects.contains(&required), "{ctx}: missing {required}");
                }
                for i in 1..=plan.args.len() {
                    let aspect = format!("arg{i}.reuse");
                    assert!(aspects.contains(&aspect.as_str()), "{ctx}: missing {aspect}");
                }
                for d in &plan.provenance.decisions {
                    assert!(!d.verdict.is_empty(), "{ctx}: empty verdict for {}", d.aspect);
                    assert!(!d.rule.is_empty(), "{ctx}: empty rule for {}", d.aspect);
                    assert!(!d.witness.is_empty(), "{ctx}: empty witness for {}", d.aspect);
                }
                // The recorded verdicts are the *applied* ones: they must
                // mirror what the plan actually does.
                let args_cycle = plan.provenance.find("args.cycle").unwrap();
                assert_eq!(
                    args_cycle.verdict == "cycle_table_kept",
                    plan.args_cycle_table,
                    "{ctx}: args.cycle verdict disagrees with the plan"
                );
                let ret_cycle = plan.provenance.find("ret.cycle").unwrap();
                assert_eq!(
                    ret_cycle.verdict == "cycle_table_kept",
                    plan.ret_cycle_table,
                    "{ctx}: ret.cycle verdict disagrees with the plan"
                );
                for (i, &reuse) in plan.arg_reuse.iter().enumerate() {
                    let d = plan.provenance.find(&format!("arg{}.reuse", i + 1)).unwrap();
                    assert_eq!(
                        d.verdict == "reuse_enabled",
                        reuse,
                        "{ctx}: arg{}.reuse verdict disagrees with the plan",
                        i + 1
                    );
                }
                let ret_reuse = plan.provenance.find("ret.reuse").unwrap();
                assert_eq!(
                    ret_reuse.verdict == "reuse_enabled",
                    plan.ret_reuse,
                    "{ctx}: ret.reuse verdict disagrees with the plan"
                );
                let dispatch = plan.provenance.find("dispatch").unwrap();
                assert_eq!(
                    dispatch.verdict == "upcall",
                    plan.upcall,
                    "{ctx}: dispatch verdict disagrees with the plan"
                );
            }
            // The rendered report names every site.
            let text = corm::render_explain(&c);
            for plan in c.plans.sites.values() {
                assert!(
                    text.contains(&format!("call site {}:", plan.site.0)),
                    "{}: site {} missing from explain report under {cfg_name}",
                    app.name,
                    plan.site.0
                );
            }
        }
    }
}

/// Run every app under every config with the auditor on. A site whose
/// provenance says `cycle_table_elided` gets a shadow cycle table at
/// runtime; any shadow-table hit (an object actually seen twice) raises
/// an `analysis-audit` error, so a clean audited run with the oracle's
/// exact output IS the cross-check between `corm explain` and reality.
#[test]
fn explain_verdicts_agree_with_runtime_auditor() {
    for app in ALL_APPS {
        for (cfg_name, cfg) in OptConfig::TABLE_ROWS {
            let c = app.compile(cfg);
            let out = run(
                &c,
                RunOptions {
                    machines: app.machines,
                    args: app.quick_args.to_vec(),
                    audit: true,
                    ..Default::default()
                },
            );
            assert!(
                out.error.is_none(),
                "{} under {cfg_name}: audited run failed: {}",
                app.name,
                out.error.unwrap()
            );
            assert_eq!(
                out.output,
                app.expected_output(app.quick_args, app.machines),
                "{} under {cfg_name}: audited output diverged",
                app.name
            );
            assert!(out.audit.enabled);
            // The §satellite metrics agree with the audit counters: the
            // per-machine shards sum to exactly the auditor's totals.
            let checks: u64 = out.metrics.machines.iter().map(|m| m.audit_checks).sum();
            assert_eq!(
                checks, out.audit.shadow_checks,
                "{} under {cfg_name}: corm_audit_checks_total out of sync",
                app.name
            );
            let poisons: u64 = out.metrics.machines.iter().map(|m| m.audit_poisons).sum();
            assert_eq!(
                poisons, out.audit.poisoned_values,
                "{} under {cfg_name}: corm_audit_poisons_total out of sync",
                app.name
            );
            // Sites that elided the table and moved payload are exactly
            // the ones the shadow table covered.
            let any_elided = c
                .plans
                .sites
                .values()
                .any(|p| !p.args_cycle_table || (p.ret.is_some() && !p.ret_cycle_table));
            if !any_elided {
                assert_eq!(
                    out.audit.shadow_tables, 0,
                    "{} under {cfg_name}: shadow tables without elided sites",
                    app.name
                );
            }
        }
    }
}

/// Audit failures cross-link back to the compile-time decision: break the
/// analysis on purpose (a cyclic list under the §7 `+list-ext` assumption
/// it violates) and check the error carries the recorded provenance for
/// the offending site.
#[test]
fn audit_failure_prints_the_recorded_provenance() {
    let src = r#"
        class Node { Node next; int v; Node(int v) { this.v = v; } }
        remote class R {
            int peek(Node n) { return n.v; }
        }
        class M {
            static void main() {
                Node head = null;
                Node cur = null;
                for (int i = 0; i < 4; i++) {
                    Node n = new Node(i);
                    if (head == null) { head = n; }
                    else { cur.next = n; }
                    cur = n;
                }
                cur.next = head; // close the ring: the §7 assumption is false
                R r = new R() @ 1;
                System.println(Str.fromLong(r.peek(head)));
            }
        }
    "#;
    let mut cfg = OptConfig::ALL;
    cfg.list_extension = true; // assume self-recursive lists are acyclic
    let c = corm::compile(src, cfg).expect("compiles");
    // The extension must have elided the table for this test to bite.
    let elided = c.plans.sites.values().any(|p| !p.args_cycle_table);
    assert!(elided, "list extension should elide the cycle table");
    let out = run(&c, RunOptions { audit: true, ..Default::default() });
    let err = out.error.expect("auditor must catch the violated assumption");
    assert!(
        err.message.contains(corm::AUDIT_ERROR_PREFIX),
        "expected an analysis-audit error, got: {err}"
    );
    assert!(
        err.message.contains("analysis provenance for call site"),
        "audit error must carry the provenance cross-link: {err}"
    );
    assert!(
        err.message.contains("args.cycle: cycle_table_elided"),
        "provenance must name the contradicted verdict: {err}"
    );
    assert!(err.message.contains("[rule: "), "provenance must name the rule: {err}");
}

/// The upcall verdict (DESIGN §17) over the five apps: the paper's hot
/// handlers run on the drain thread, and the one that feeds a queue does
/// not — with the reason printed by `corm explain`.
#[test]
fn upcall_verdicts_over_the_five_apps() {
    let dispatch_of = |app: &corm_apps::AppSpec, method: &str| {
        let c = app.compile(OptConfig::ALL);
        let table = &c.module.table;
        let plan = c
            .plans
            .sites
            .values()
            .find(|p| {
                let m = table.method(p.method);
                format!("{}.{}", table.class(m.owner).name, m.name) == method && !p.is_spawn
            })
            .unwrap_or_else(|| panic!("{}: no two-way site calls {method}", app.name))
            .clone();
        (plan, corm::render_explain(&c))
    };
    let apps = corm_apps::ALL_APPS;
    let app = |name: &str| apps.iter().find(|a| a.name == name).expect("app");
    for (name, method) in [
        ("webserver", "Slave.getPage"),
        ("webserver", "Slave.hitCount"),
        ("linked_list", "Foo.send"),
        ("lu", "Master.flushRow"),
    ] {
        let (plan, _) = dispatch_of(app(name), method);
        assert!(plan.upcall, "{method} must run as an upcall");
        let d = plan.provenance.find("dispatch").expect("dispatch decision");
        assert_eq!((d.verdict, d.rule), ("upcall", "no-blocking-reach"), "{method}");
    }
    let (plan, text) = dispatch_of(app("superopt"), "Tester.submit");
    assert!(!plan.upcall, "Tester.submit calls Queue.put and must keep the worker path");
    let d = plan.provenance.find("dispatch").expect("dispatch decision");
    assert_eq!((d.verdict, d.rule), ("worker", "reaches-blocking-op"));
    assert!(
        text.contains(
            "dispatch: worker [rule: reaches-blocking-op] — may block: reaches Queue.put"
        ),
        "corm explain must print the verdict and its reason:\n{text}"
    );
    // Spawned calls keep their own thread whatever the handler does.
    let c = app("superopt").compile(OptConfig::ALL);
    for p in c.plans.sites.values().filter(|p| p.is_spawn) {
        assert!(!p.upcall);
        assert_eq!(p.provenance.find("dispatch").unwrap().verdict, "own_thread");
    }
}

/// A handler wrongly marked upcall-safe: under audit, reaching the
/// blocking operation on the drain thread is an `analysis-audit` error
/// naming the site's provenance; without audit the upcall hands the
/// mailbox to a fresh drain thread and the program still completes.
#[test]
fn blocking_inside_an_upcall_is_an_audit_error_with_provenance() {
    let src = r#"
        remote class R { int nap() { System.sleepMicros(10); return 7; } }
        class M {
            static void main() {
                R r = new R() @ 1;
                System.println(Str.fromLong(r.nap()));
            }
        }
    "#;
    let c = corm::compile(src, OptConfig::ALL).expect("compiles");
    let mut plans = (*c.plans).clone();
    let nap = plans.sites.values_mut().find(|p| !p.upcall).expect("nap keeps the worker path");
    nap.upcall = true; // the unsound verdict under test
    let broken = corm::Compiled { plans: std::sync::Arc::new(plans), ..c };

    let out = run(&broken, RunOptions { audit: true, ..Default::default() });
    let err = out.error.expect("auditor must catch the blocking upcall");
    assert!(err.message.contains(corm::AUDIT_ERROR_PREFIX), "{err}");
    assert!(err.message.contains("reached blocking System.sleepMicros"), "{err}");
    assert!(err.message.contains("analysis provenance for call site"), "{err}");
    assert!(err.message.contains("dispatch: worker"), "{err}");
    assert_eq!(out.flight.reason, "audit-mismatch");

    let out = run(&broken, RunOptions::default());
    assert_eq!(out.error, None);
    assert_eq!(out.output, "7\n");
    assert_eq!(out.metrics.machines[1].upcall_handoffs, 1, "blocking must hand off first");
}
