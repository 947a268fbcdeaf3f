//! Crash recovery end to end: power loss mid-ingestion, reboot, recover.
//!
//! The fault-injection layer of `pds-flash` cuts the power after a
//! seed-chosen number of page programs while a PDS is ingesting across
//! all three collections. [`Pds::reopen`] must then bring the token back
//! with every durably-flushed record intact, derived structures rebuilt,
//! and the losses reported honestly — never surfacing later as
//! corruption.

use pds::core::{AccessContext, Pds, Purpose};
use pds::db::mvcc::kind;
use pds::db::{Hlc, Predicate, Row, Value, DOC_STORE};
use pds::flash::FaultPlan;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

/// Ingest one synthetic day of personal data. Returns Err at the cut.
fn ingest_day(pds: &mut Pds, day: u64) -> Result<(), pds::core::PdsError> {
    pds.ingest_email(
        day,
        "dr.martin",
        &format!("subject day {day}"),
        &format!("results for day {day} marker m{}", day % 7),
    )?;
    pds.ingest_health(day, "blood-pressure", 110 + day % 30, "routine check")?;
    pds.ingest_bank(day, "groceries", 1_000 + day * 3, "shop-1")?;
    Ok(())
}

#[test]
fn power_loss_mid_ingest_is_survivable() {
    for case in 0..6u64 {
        let seed = 0x9D5_C4A5 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pds = Pds::for_tests(1, "alice").unwrap();
        let me = AccessContext::new("alice", Purpose::PersonalUse);

        // A durable prefix the crash must never touch.
        for day in 0..10 {
            ingest_day(&mut pds, day).unwrap();
        }
        pds.sync().unwrap();
        let durable_rows = 10u64;

        // Cut the power somewhere in the next burst of ingestion.
        let cut_after = rng.gen_range(1u64..60);
        pds.token()
            .flash()
            .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        let mut attempted = 10u64;
        let crashed = loop {
            if attempted == 200 {
                break false;
            }
            match ingest_day(&mut pds, attempted) {
                Ok(()) => attempted += 1,
                Err(_) => break true,
            }
        };
        assert!(crashed, "case {case}: cut never fired");

        let (mut rec, report) = pds.reopen().unwrap();
        assert!(
            report.docs_recovered as u64 >= 2 * durable_rows,
            "case {case}: lost durable documents ({report:?})"
        );
        for (table, _) in &report.rows_lost {
            let (rows, trace) = rec.select_traced(&me, table, &Predicate::eq("day", Value::U64(5)));
            let plan = trace.root.find("db.select").and_then(|s| s.attr("db.plan"));
            assert_eq!(
                plan.and_then(|a| a.as_str()),
                Some("ordered_scan"),
                "case {case}"
            );
            assert_eq!(
                rows.unwrap().len(),
                1,
                "case {case}: durable day-5 row in {table}"
            );
        }

        // The rebuilt inverted index answers queries over the survivors.
        let hits = rec.search(&me, &["marker"], 20).unwrap();
        assert!(
            hits.len() >= durable_rows as usize,
            "case {case}: search lost durable docs"
        );

        // And the recovered PDS keeps working: ingest more, search again.
        for day in 200..205 {
            ingest_day(&mut rec, day).unwrap();
        }
        let hits = rec.search(&me, &["marker"], 40).unwrap();
        assert!(hits.len() >= durable_rows as usize + 5, "case {case}");

        // The recovery counters the report tooling exports are live.
        assert!(
            pds_obs::counter("flash.faults_injected").get() > 0,
            "case {case}"
        );
        assert!(
            pds_obs::counter("recovery.pages_scanned").get() > 0,
            "case {case}"
        );
        assert!(
            pds_obs::counter("recovery.records_recovered").get() > 0,
            "case {case}"
        );
    }
}

#[test]
fn power_loss_over_the_change_log_keeps_the_causal_prefix() {
    // Store ids follow `Pds::with_token`'s create order: EMAIL=0,
    // HEALTH=1, BANK=2; the document store is `DOC_STORE`.
    const TABLES: [&str; 3] = ["EMAIL", "HEALTH", "BANK"];
    const BANK_STORE: u16 = 2;
    let all_days = Predicate::between("day", Value::U64(0), Value::U64(1_000_000));

    for case in 0..6u64 {
        let seed = 0xC1A_0E18 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pds = Pds::for_tests(2, "erin").unwrap();
        let me = AccessContext::new("erin", Purpose::PersonalUse);

        // A standing subscription registered before any data exists, and
        // a durable, committed prefix the crash must never touch.
        let sub = pds
            .subscribe("BANK", Predicate::eq("category", Value::str("groceries")))
            .unwrap();
        for day in 0..8 {
            ingest_day(&mut pds, day).unwrap();
            pds.commit().unwrap();
        }
        pds.sync().unwrap();
        let pre_crash = pds.changes_since(Hlc::ZERO).unwrap();
        assert!(!pre_crash.is_empty(), "case {case}: empty durable log");

        // Drain the subscription up to the durable frontier: everything
        // delivered from here on must be a post-sync commit.
        let delivered_pre = pds.poll_subscription(sub).unwrap().len();
        let bank_pre = pre_crash
            .iter()
            .filter(|r| r.kind == kind::ROW_INSERT && r.store == BANK_STORE)
            .count();
        assert_eq!(delivered_pre, bank_pre, "case {case}: prefix delivery");

        // Cut the power while further days are ingested, committed and
        // flushed — the change log itself is in the fault window.
        let cut_after = rng.gen_range(1u64..60);
        pds.token()
            .flash()
            .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        let mut day = 8u64;
        let crashed = loop {
            if day == 200 {
                break false;
            }
            let r = ingest_day(&mut pds, day)
                .and_then(|()| pds.commit().map(|_| ()))
                .and_then(|()| pds.sync());
            match r {
                Ok(()) => day += 1,
                Err(_) => break true,
            }
        };
        assert!(crashed, "case {case}: cut never fired");

        let (mut rec, report) = pds.reopen().unwrap();
        let recs = rec.changes_since(Hlc::ZERO).unwrap();

        // 1. The torn tail truncates to the durable prefix: every
        //    pre-sync record survives, verbatim and in order.
        assert!(recs.len() >= pre_crash.len(), "case {case}: prefix lost");
        assert_eq!(
            &recs[..pre_crash.len()],
            &pre_crash[..],
            "case {case}: durable log prefix rewritten"
        );

        // 2. Stamps stay non-decreasing across the recovery boundary —
        //    including any synthetic restamp of durable-but-unstamped rows.
        assert!(
            recs.windows(2)
                .all(|w| (w[0].hlc, w[0].node) <= (w[1].hlc, w[1].node)),
            "case {case}: recovered log is not causally ordered"
        );

        // 3. No phantom: `changes_since` never names an entity the
        //    recovered stores cannot serve.
        for (store, table) in TABLES.iter().enumerate() {
            let (rows, trace) = rec.select_traced(&me, table, &all_days);
            let plan = trace.root.find("db.select").and_then(|s| s.attr("db.plan"));
            assert_eq!(
                plan.and_then(|a| a.as_str()),
                Some("ordered_scan"),
                "case {case}"
            );
            let rows = rows.unwrap().len() as u32;
            for r in recs.iter().filter(|r| r.store == store as u16) {
                assert!(
                    r.entity < rows,
                    "case {case}: {table} change names phantom row {} (have {rows})",
                    r.entity
                );
            }
        }
        for r in recs.iter().filter(|r| r.store == DOC_STORE) {
            assert!(
                r.entity < report.docs_recovered,
                "case {case}: change log names phantom doc {} (have {})",
                r.entity,
                report.docs_recovered
            );
        }

        // 4. The pre-crash subscription delivers each surviving commit
        //    exactly once: prefix + post-recovery deliveries add up to
        //    the recovered log's BANK inserts, and a re-poll is empty.
        let delivered_post = rec.poll_subscription(sub).unwrap().len();
        let bank_total = recs
            .iter()
            .filter(|r| r.kind == kind::ROW_INSERT && r.store == BANK_STORE)
            .count();
        assert_eq!(
            delivered_pre + delivered_post,
            bank_total,
            "case {case}: subscription missed or re-delivered a commit"
        );
        assert!(
            rec.poll_subscription(sub).unwrap().is_empty(),
            "case {case}: drained subscription re-delivered"
        );

        // 5. The recovered token keeps streaming: one more committed day
        //    yields exactly one more BANK delivery.
        ingest_day(&mut rec, 300).unwrap();
        rec.commit().unwrap();
        assert_eq!(
            rec.poll_subscription(sub).unwrap().len(),
            1,
            "case {case}: post-recovery commit not delivered"
        );

        // The change-log recovery counters the report tooling exports
        // are live.
        assert!(
            pds_obs::counter("recovery.changes_recovered").get() > 0,
            "case {case}"
        );
        assert!(
            pds_obs::counter("mvcc.changes_logged").get() > 0,
            "case {case}"
        );
    }
}

#[test]
fn clean_reboot_loses_nothing() {
    let mut pds = Pds::for_tests(7, "bob").unwrap();
    let me = AccessContext::new("bob", Purpose::PersonalUse);
    for day in 0..40 {
        ingest_day(&mut pds, day).unwrap();
    }
    pds.sync().unwrap();
    let before = pds.search(&me, &["marker"], 50).unwrap();

    let (mut rec, report) = pds.reopen().unwrap();
    assert_eq!(report.docs_lost, 0);
    assert!(report.rows_lost.iter().all(|(_, lost)| *lost == 0));
    let after = rec.search(&me, &["marker"], 50).unwrap();
    assert_eq!(
        after.iter().map(|h| h.doc).collect::<Vec<_>>(),
        before.iter().map(|h| h.doc).collect::<Vec<_>>(),
    );
}

#[test]
fn hibernation_round_trip_loses_nothing() {
    // The fleet scheduler's eviction path: park a synced token as a
    // sparse flash snapshot plus recovery manifests, then wake it and
    // get the same PDS back — data, policies, audit chain and keys.
    let mut pds = Pds::for_tests(9, "carol").unwrap();
    let me = AccessContext::new("carol", Purpose::PersonalUse);
    for day in 0..25 {
        ingest_day(&mut pds, day).unwrap();
    }
    let before_hits = pds.search(&me, &["marker"], 40).unwrap();
    let before_rows = pds
        .select(
            &me,
            "BANK",
            &Predicate::eq("category", Value::str("groceries")),
        )
        .unwrap();
    let before_audit = pds.audit().entries().len();

    let parked = pds.hibernate().unwrap();
    // The parked state is a fraction of a live PDS, but not empty: the
    // sparse snapshot only carries programmed blocks.
    assert!(parked.resident_bytes() > 0);
    assert_eq!(parked.id().0, 9);

    let (mut woken, report) = Pds::wake(parked).unwrap();
    assert_eq!(report.docs_lost, 0, "hibernate syncs first");
    assert!(report.rows_lost.iter().all(|(_, lost)| *lost == 0));
    assert_eq!(woken.owner(), "carol");
    let after_hits = woken.search(&me, &["marker"], 40).unwrap();
    assert_eq!(
        after_hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
        before_hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
    );
    let after_rows = woken
        .select(
            &me,
            "BANK",
            &Predicate::eq("category", Value::str("groceries")),
        )
        .unwrap();
    assert_eq!(after_rows.len(), before_rows.len());
    // The audit trail survived the park (plus the accesses just made).
    assert!(woken.audit().entries().len() >= before_audit);
    assert!(woken.audit().verify());

    // And the woken token keeps working: ingest + search again.
    ingest_day(&mut woken, 99).unwrap();
    assert!(woken.search(&me, &["marker"], 60).unwrap().len() >= after_hits.len());
}

#[test]
fn power_loss_over_the_flight_recorder_keeps_the_durable_timeline() {
    use pds::obs::flight::code;

    for case in 0..6u64 {
        let seed = 0xB1AC_B0C5 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pds = Pds::for_tests(4, "gene").unwrap();

        // A durable timeline prefix: committed rounds, then a sync that
        // flushes the recorder ring. Everything in the RAM mirror is on
        // flash after this point.
        for day in 0..8 {
            ingest_day(&mut pds, day).unwrap();
            pds.commit().unwrap();
        }
        pds.sync().unwrap();
        let durable = pds.blackbox().frames().to_vec();
        assert!(!durable.is_empty(), "case {case}: empty durable timeline");
        assert!(pds.forensics().is_none(), "case {case}: never reopened");

        // Cut the power while further rounds run — recorder pages are in
        // the same fault window as data and changelog pages.
        let cut_after = rng.gen_range(1u64..60);
        pds.token()
            .flash()
            .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        let mut day = 8u64;
        let crashed = loop {
            if day == 200 {
                break false;
            }
            let r = ingest_day(&mut pds, day)
                .and_then(|()| pds.commit().map(|_| ()))
                .and_then(|()| pds.sync());
            match r {
                Ok(()) => day += 1,
                Err(_) => break true,
            }
        };
        assert!(crashed, "case {case}: cut never fired");
        let last_attempted = day;

        let (rec, _report) = pds.reopen().unwrap();
        let f = rec.forensics().expect("forensics after reopen");

        // 1. The durable prefix is recovered verbatim — same frames,
        //    same order, bit for bit.
        assert!(
            f.timeline.len() >= durable.len(),
            "case {case}: durable timeline prefix lost"
        );
        assert_eq!(
            &f.timeline[..durable.len()],
            &durable[..],
            "case {case}: durable timeline prefix rewritten"
        );

        // 2. The torn tail is dropped at a frame boundary: ticks stay
        //    strictly monotone across the whole recovered timeline.
        assert!(
            f.timeline.windows(2).all(|w| w[0].tick < w[1].tick),
            "case {case}: recovered timeline is not strictly monotone"
        );
        assert_eq!(
            f.frames_recovered,
            f.timeline.len() as u64,
            "case {case}: scan and timeline disagree"
        );
        assert_eq!(
            f.crash_tick(),
            f.timeline.last().unwrap().tick,
            "case {case}: crash tick is not the last durable frame"
        );

        // 3. No phantom events: post-prefix frames name only rounds the
        //    crashed run actually staged, and the pre-crash timeline
        //    cannot contain recovery events.
        for fr in &f.timeline[durable.len()..] {
            if fr.code == code::CORE_INGEST {
                assert!(
                    (8..=last_attempted).contains(&fr.args[1]),
                    "case {case}: phantom ingest day {} in timeline",
                    fr.args[1]
                );
            }
            assert_ne!(
                fr.code,
                code::RECOVERY_REOPEN,
                "case {case}: pre-crash timeline contains a recovery event"
            );
        }

        // 4. The recovered ring keeps stamping past the crash: the
        //    reopen itself is now the newest frame.
        let post = rec.blackbox().frames();
        let reopened = post.last().unwrap();
        assert_eq!(reopened.code, code::RECOVERY_REOPEN, "case {case}");
        assert!(reopened.tick > f.crash_tick(), "case {case}");
        assert!(
            pds_obs::counter("blackbox.frames_recovered").get() > 0,
            "case {case}: recovery counters dead"
        );
    }
}

#[test]
fn a_crash_digest_is_folded_exactly_once_across_a_power_cycle_mid_mail() {
    use pds::fleet::{
        mail_forensics, BusConfig, Collector, HealthEngine, MailboxBus, TelemetryConfig,
    };

    for case in 0..4u64 {
        let seed = 0xD16_E57 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pds = Pds::for_tests(5, "hana").unwrap();
        for day in 0..6 {
            ingest_day(&mut pds, day).unwrap();
            pds.commit().unwrap();
        }
        pds.sync().unwrap();
        let cut_after = rng.gen_range(1u64..60);
        pds.token()
            .flash()
            .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        let mut day = 6u64;
        loop {
            assert!(day < 200, "case {case}: cut never fired");
            let r = ingest_day(&mut pds, day)
                .and_then(|()| pds.commit().map(|_| ()))
                .and_then(|()| pds.sync());
            if r.is_err() {
                break;
            }
            day += 1;
        }
        let (rec, _) = pds.reopen().unwrap();

        // Mail the digest over a duplicating bus, then lose power again
        // *before the token learns whether it landed*: nothing new was
        // synced, so the second recovery replays the same durable ring
        // and re-derives the same crash tick. The token re-mails.
        let mut bus = MailboxBus::new(BusConfig {
            dup_rate: 0.3,
            ..BusConfig::reliable(seed)
        });
        let mut collector = Collector::new(TelemetryConfig::default());
        assert!(mail_forensics(&rec, 0, &mut bus), "case {case}: first mail");
        let (rec2, _) = rec.reopen().unwrap();
        assert!(mail_forensics(&rec2, 0, &mut bus), "case {case}: re-mail");
        bus.run_until_quiet(100_000);
        collector.drain_bus(&mut bus);

        // Exactly once: one crash folded, the re-mail (and any bus
        // duplicate) dropped by the (token, crash_tick) gate.
        let stats = collector.stats();
        assert_eq!(
            stats.digests_folded, 1,
            "case {case}: crash not exactly-once"
        );
        assert!(
            stats.digests_deduped >= 1,
            "case {case}: re-mail not deduped"
        );
        assert_eq!(stats.decode_errors, 0, "case {case}");
        assert_eq!(
            collector.total().counter("forensics.crashes"),
            1,
            "case {case}: crash counted twice"
        );
        assert!(
            collector.crash_summary().contains("1 token(s) crashed"),
            "case {case}: triage line wrong: {}",
            collector.crash_summary()
        );
        let health = collector.health(&HealthEngine::standard());
        assert!(
            health
                .verdicts
                .iter()
                .any(|v| v.rule == "forensics.crashes == 0" && !v.pass),
            "case {case}: the storm is invisible to fleet status"
        );
    }
}

/// The plan the gateway's `db.select` span reports for `pred` on BANK,
/// and the rows it returned.
fn traced_bank(pds: &mut Pds, me: &AccessContext, pred: &Predicate) -> (String, Vec<Row>) {
    let (rows, trace) = pds.select_traced(me, "BANK", pred);
    let plan = trace
        .root
        .find("db.select")
        .and_then(|s| s.attr("db.plan"))
        .and_then(|a| a.as_str())
        .unwrap_or_default()
        .to_string();
    (plan, rows.unwrap())
}

/// BANK rows with `lo ≤ column ≤ hi`, as a full scan of the table finds
/// them (a `Str` range on `category` takes every row).
fn bank_by_full_scan(pds: &mut Pds, me: &AccessContext, c: usize, lo: u64, hi: u64) -> Vec<Row> {
    let every = Predicate::between("category", Value::str(""), Value::str("~"));
    let (plan, rows) = traced_bank(pds, me, &every);
    assert_eq!(plan, "full_scan");
    rows.into_iter()
        .filter(|r| r[c].as_u64().is_some_and(|v| (lo..=hi).contains(&v)))
        .collect()
}

/// Every range below on BANK's in-order `day` is an ordered scan and
/// answers as the full scan does; on `amount_cents`, which went out of
/// order before the cut, a range is a full scan.
fn ordered_ranges_agree(pds: &mut Pds, me: &AccessContext, ctx: &str) {
    let ranges = [
        (0, 0),
        (0, 3),
        (5, 5),
        (4, 9),
        (9, 12),
        (8, 30),
        (11, 200),
        (150, 400),
        (0, u64::MAX),
        (7, 6),
    ];
    for (lo, hi) in ranges {
        let pred = Predicate::between("day", Value::U64(lo), Value::U64(hi));
        let (plan, rows) = traced_bank(pds, me, &pred);
        assert_eq!(plan, "ordered_scan", "{ctx}: {lo}..={hi}");
        assert_eq!(
            rows,
            bank_by_full_scan(pds, me, 0, lo, hi),
            "{ctx}: {lo}..={hi}"
        );
    }
    let (plan, _) = traced_bank(pds, me, &Predicate::eq("day", Value::U64(5)));
    assert_eq!(plan, "ordered_scan", "{ctx}");
    let amounts = Predicate::between("amount_cents", Value::U64(1_000), Value::U64(1_030));
    let (plan, rows) = traced_bank(pds, me, &amounts);
    assert_eq!(plan, "full_scan", "{ctx}: the order a cut cannot restore");
    assert_eq!(rows, bank_by_full_scan(pds, me, 2, 1_000, 1_030), "{ctx}");
}

#[test]
fn ordered_ranges_answer_as_a_full_scan_after_a_cut_and_after_a_wake() {
    for case in 0..6u64 {
        let seed = 0x0D_E2ED + case;
        let me = AccessContext::new("dana", Purpose::PersonalUse);
        let mut pds = Pds::for_tests(3, "dana").unwrap();
        for day in 0..10 {
            ingest_day(&mut pds, day).unwrap();
        }
        // A refund on day 9: `amount_cents` goes down, `day` does not.
        pds.ingest_bank(9, "groceries", 5, "shop-1").unwrap();
        pds.sync().unwrap();
        let cut_after = StdRng::seed_from_u64(seed).gen_range(1u64..60);
        pds.token()
            .flash()
            .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
        let mut day = 10;
        while ingest_day(&mut pds, day).is_ok() {
            day += 1;
            assert!(day < 200, "case {case}: cut never fired");
        }
        let (mut rec, _) = pds.reopen().unwrap();
        ordered_ranges_agree(&mut rec, &me, &format!("case {case}, reopened"));
        // Rows appended after the recovery keep the answers equal, in
        // whatever plan the recovered order allows.
        for day in 300..303 {
            ingest_day(&mut rec, day).unwrap();
        }
        let pred = Predicate::between("day", Value::U64(8), Value::U64(301));
        let (_, rows) = traced_bank(&mut rec, &me, &pred);
        assert_eq!(
            rows,
            bank_by_full_scan(&mut rec, &me, 0, 8, 301),
            "case {case}"
        );
        let (mut woken, _) = Pds::wake(rec.hibernate().unwrap()).unwrap();
        let (_, rows) = traced_bank(&mut woken, &me, &pred);
        assert_eq!(
            rows,
            bank_by_full_scan(&mut woken, &me, 0, 8, 301),
            "case {case}"
        );
    }
    // Hibernate → wake with nothing lost: the order comes back as it was.
    let me = AccessContext::new("dana", Purpose::PersonalUse);
    let mut pds = Pds::for_tests(3, "dana").unwrap();
    for day in 0..25 {
        ingest_day(&mut pds, day).unwrap();
    }
    pds.ingest_bank(24, "groceries", 5, "shop-1").unwrap();
    let (mut woken, report) = Pds::wake(pds.hibernate().unwrap()).unwrap();
    assert!(report.rows_lost.iter().all(|(_, lost)| *lost == 0));
    ordered_ranges_agree(&mut woken, &me, "woken");
}

/// What a requester can see of the search side: ranked hits (scores bit
/// for bit) for a fixed query set, and every document's bytes.
fn search_view(pds: &mut Pds, me: &AccessContext, docs: u32) -> Vec<Vec<u8>> {
    let mut view = Vec::new();
    for query in [&["marker"][..], &["m3", "results"], &["subject", "routine"]] {
        for hit in pds.search(me, query, 30).unwrap() {
            view.push(format!("{}:{:016x}", hit.doc, hit.score.to_bits()).into_bytes());
        }
        view.push(Vec::new());
    }
    view.extend((0..docs).map(|d| pds.get_document(me, d).unwrap_or_default()));
    view
}

#[test]
fn a_kept_index_answers_like_a_rebuilt_one_after_reopen_and_after_wake() {
    let me = AccessContext::new("ivan", Purpose::PersonalUse);
    // A token's state is a pure function of what it was fed, so building
    // it twice yields the same chip twice: one twin wakes with its index
    // checkpoint, the other with the checkpoint withheld — the full
    // re-index recovery falls back to.
    let both_ways = |park: &dyn Fn() -> pds::core::PdsHibernation, ctx: &str| {
        let (mut kept, kr) = Pds::wake(park()).unwrap();
        let (mut full, fr) = Pds::wake(park().without_index_checkpoint()).unwrap();
        assert!(kr.index_pages_kept > 0, "{ctx}: index not kept ({kr:?})");
        assert!(kr.docs_replayed < kr.docs_recovered, "{ctx}: {kr:?}");
        assert_eq!(fr.index_pages_kept, 0, "{ctx}: oracle kept pages");
        assert_eq!(fr.docs_replayed, fr.docs_recovered, "{ctx}");
        assert_eq!(
            (kr.docs_recovered, kr.docs_lost, kr.tombstones_applied),
            (fr.docs_recovered, fr.docs_lost, fr.tombstones_applied),
            "{ctx}: document counts"
        );
        assert_eq!(kr.rows_lost, fr.rows_lost, "{ctx}");
        assert_eq!(kr.changes_dropped, fr.changes_dropped, "{ctx}");
        assert_eq!(
            search_view(&mut kept, &me, kr.docs_recovered),
            search_view(&mut full, &me, fr.docs_recovered),
            "{ctx}: search side differs"
        );
        // Both keep working, and keep agreeing.
        for pds in [&mut kept, &mut full] {
            for day in 300..305 {
                ingest_day(pds, day).unwrap();
            }
        }
        let docs = kr.docs_recovered + 10;
        assert_eq!(
            search_view(&mut kept, &me, docs),
            search_view(&mut full, &me, docs),
            "{ctx}: diverged after more ingests"
        );
        kr
    };

    // `reopen` after a power cut: the tail past the last sync is replayed.
    for case in 0..6u64 {
        let seed = 0x1D_C4A5 + case;
        let crashed = || {
            let mut pds = Pds::for_tests(6, "ivan").unwrap();
            for day in 0..10 {
                ingest_day(&mut pds, day).unwrap();
            }
            pds.sync().unwrap();
            let cut_after = StdRng::seed_from_u64(seed).gen_range(1u64..60);
            pds.token()
                .flash()
                .inject_faults(FaultPlan::new(seed).power_loss_after(cut_after));
            let mut day = 10;
            while ingest_day(&mut pds, day).is_ok() {
                day += 1;
                assert!(day < 200, "case {case}: cut never fired");
            }
            pds.power_off()
        };
        both_ways(&crashed, &format!("reopen case {case}"));
    }

    // `hibernate → wake`: synced first, so nothing is replayed and the
    // wake programs no page at all.
    let parked = || {
        let mut pds = Pds::for_tests(6, "ivan").unwrap();
        for day in 0..25 {
            ingest_day(&mut pds, day).unwrap();
        }
        pds.hibernate().unwrap()
    };
    let report = both_ways(&parked, "hibernate");
    assert_eq!((report.docs_lost, report.docs_replayed), (0, 0));
    let (woken, _) = Pds::wake(parked()).unwrap();
    assert_eq!(woken.token().flash().stats().page_programs, 0);
}

/// Bytes of a [`pds::db::DatabaseManifest`] that are not block ids, and
/// the number of block ids. Every struct is destructured in full, so a
/// new field does not compile until it is weighed here.
fn db_manifest_weight(m: &pds::db::DatabaseManifest) -> (usize, usize) {
    use pds::db::{DatabaseManifest, MvccManifest, TableManifest};
    use std::mem::{size_of, size_of_val};
    let DatabaseManifest {
        tables,
        index_blocks,
        mvcc,
    } = m;
    let (mut fixed, mut block_ids) = (0, index_blocks.len());
    for table in tables {
        let TableManifest {
            name,
            schema,
            blocks,
            rows,
            order,
        } = table;
        fixed += name.len() + format!("{schema:?}").len() + size_of_val(rows);
        fixed += size_of_val(&order[..]);
        block_ids += blocks.len();
    }
    if let Some(mvcc) = mvcc {
        let MvccManifest {
            node,
            blocks,
            epoch,
            floor,
            base,
        } = mvcc;
        fixed += size_of_val(node) + size_of_val(epoch) + size_of_val(floor);
        fixed += base.len() * size_of::<(u16, Hlc, u32)>();
        block_ids += blocks.len();
    }
    (fixed, block_ids)
}

/// The same for an [`pds::search::EngineManifest`].
fn engine_manifest_weight(m: &pds::search::EngineManifest) -> (usize, usize) {
    use std::mem::size_of_val;
    let pds::search::EngineManifest {
        doc_blocks,
        docs,
        tombstone_blocks,
        index_blocks,
        index_epoch,
        checkpoint_blocks,
        num_buckets,
        buffer_triples,
    } = m;
    let fixed = size_of_val(docs)
        + size_of_val(index_epoch)
        + size_of_val(num_buckets)
        + size_of_val(buffer_triples);
    let lists = [
        doc_blocks,
        tombstone_blocks,
        index_blocks,
        checkpoint_blocks,
    ];
    (fixed, lists.iter().map(|l| l.len()).sum())
}

#[test]
fn manifests_are_block_lists_whatever_the_corpus() {
    use pds::db::value::{ColumnType, Schema};
    use pds::db::Database;
    use pds::flash::{Flash, FlashGeometry};
    use pds::mcu::RamBudget;
    use pds::search::{DfStrategy, SearchEngine};

    // What a power-off carries for a token that ingested `n` rows and
    // documents: both manifests, weighed.
    let weigh = |n: u64| {
        let flash = Flash::new(FlashGeometry::new(512, 8, 2048));
        let ram = RamBudget::new(64 * 1024);
        let mut db = Database::new(&flash, &ram);
        let schema = Schema::new(&[("day", ColumnType::U64), ("what", ColumnType::Str)]);
        db.create_table("A", schema.clone()).unwrap();
        db.create_table("B", schema).unwrap();
        db.enable_mvcc(1);
        let mut engine = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
        for i in 0..n {
            let table = if i % 3 == 0 { "A" } else { "B" };
            db.insert(table, vec![Value::U64(i), Value::Str(format!("row {i}"))])
                .unwrap();
            engine
                .index_document(&format!("document {i} marker m{}", i % 11))
                .unwrap();
            if i % 50 == 49 {
                db.commit().unwrap();
                engine.flush().unwrap();
            }
        }
        (
            db_manifest_weight(&db.manifest()),
            engine_manifest_weight(&engine.manifest()),
        )
    };
    let ((db_fixed, db_blocks), (engine_fixed, engine_blocks)) = weigh(400);
    let ((db_fixed_4n, db_blocks_4n), (engine_fixed_4n, engine_blocks_4n)) = weigh(1600);
    // Four times the rows and documents: more blocks, and not a byte of
    // anything else — no per-row or per-document state rides along.
    assert_eq!(db_fixed, db_fixed_4n);
    assert_eq!(engine_fixed, engine_fixed_4n);
    assert!(db_blocks_4n > db_blocks && engine_blocks_4n > engine_blocks);
    assert!(db_blocks_4n + engine_blocks_4n < 200, "block ids, not rows");
}

#[test]
fn a_wake_reads_each_ring_page_once_and_the_page_that_ends_the_scan() {
    // A token holding nothing but its flight recorder: every page a
    // wake reads is a ring page, and each park flushes one more — 16 to
    // the ring's block, so the 16th wake finds the block exactly full
    // and the 17th crosses into a second one.
    let mut pds = Pds::for_tests(11, "dora").unwrap();
    let mut frames = 0;
    for k in 1..=17u64 {
        let (woken, _) = Pds::wake(pds.hibernate().unwrap()).unwrap();
        pds = woken;
        // k pages once each, then the erased page the scan stops at —
        // which a block that is exactly full does not have.
        let stats = pds.token().flash().stats();
        assert_eq!(
            stats.page_reads,
            k + u64::from(!k.is_multiple_of(16)),
            "wake {k}"
        );
        assert_eq!(stats.page_programs, 0, "wake {k}");
        // And the timeline is whole: every park's frames came back.
        let timeline = pds.forensics().unwrap().timeline.len();
        assert!(
            timeline > frames,
            "wake {k}: {timeline} frames after {frames}"
        );
        frames = timeline;
    }
}
