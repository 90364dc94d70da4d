//! The ensemble dedup contract, end to end: a member run through the
//! shared-input ensemble engine is **bit-identical** to a standalone run
//! of the same perturbed configuration. Sharing the `inputhour`/
//! `pretrans` stage is an optimisation, never a science change — the
//! same guarantee the paper makes for data distribution (§3) extended
//! to cross-member work sharing.

use airshed::core::config::{SimConfig, Weather};
use airshed::core::driver::run_with_profile_on;
use airshed::core::ensemble::{run_ensemble, EnsembleJob, MemberSpec};
use airshed::core::profile::WorkProfile;
use airshed::core::{ExecSpec, Obs, RunReport};
use airshed::fabric::report_fingerprint;

fn base() -> SimConfig {
    let mut c = SimConfig::test_tiny(4, 2);
    c.dataset = airshed::core::config::DatasetChoice::Tiny(40);
    c.start_hour = 7;
    c
}

/// A job that forks every kind of perturbation: an emission sweep in
/// the base group, a stagnation member, and a next-day member — three
/// distinct input groups sharing one submission.
fn mixed_job() -> EnsembleJob {
    let mut job = EnsembleJob::emission_sweep(base(), &[0.6, 1.0, 1.4]);
    job.push(MemberSpec::weather(Weather::Stagnation));
    job.push(MemberSpec {
        emission_scale: 0.6,
        weather: Weather::Stagnation,
        day: 0,
    });
    job.push(MemberSpec::day(1));
    job
}

/// Exact numeric equality between an ensemble member's captured profile
/// and a standalone run's — every hour, every step vector, every bit.
fn assert_profiles_identical(i: usize, ens: &WorkProfile, alone: &WorkProfile) {
    assert_eq!(ens.hours.len(), alone.hours.len(), "member {i}: hour count");
    for (h, (a, b)) in ens.hours.iter().zip(&alone.hours).enumerate() {
        assert_eq!(
            a.input_work.to_bits(),
            b.input_work.to_bits(),
            "member {i} hour {h}: input work"
        );
        assert_eq!(
            a.pretrans_work.to_bits(),
            b.pretrans_work.to_bits(),
            "member {i} hour {h}: pretrans work"
        );
        assert_eq!(a.input_bytes, b.input_bytes, "member {i} hour {h}: bytes");
        assert_eq!(a.steps.len(), b.steps.len(), "member {i} hour {h}: steps");
        for (k, (sa, sb)) in a.steps.iter().zip(&b.steps).enumerate() {
            let pairs = [
                (&sa.transport1, &sb.transport1, "transport1"),
                (&sa.transport2, &sb.transport2, "transport2"),
                (&sa.chemistry, &sb.chemistry, "chemistry"),
            ];
            for (va, vb, what) in pairs {
                assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(vb) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "member {i} hour {h} step {k}: {what} work diverged"
                    );
                }
            }
            assert_eq!(sa.aerosol.to_bits(), sb.aerosol.to_bits());
        }
        assert_eq!(a.surface.len(), b.surface.len());
        for (x, y) in a.surface.iter().zip(&b.surface) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "member {i} hour {h}: surface concentrations diverged"
            );
        }
    }
}

/// Strip the ensemble-only annotations so a deduped report can be
/// compared field-for-field against a standalone one.
fn normalized(report: &RunReport) -> RunReport {
    let mut r = report.clone();
    r.dedup_saved_bytes = None;
    r.dedup_saved_seconds = None;
    r
}

#[test]
fn deduped_members_are_bit_identical_to_standalone_runs() {
    let job = mixed_job();
    assert_eq!(job.input_groups().len(), 3, "the job must fork 3 groups");
    let result = run_ensemble(&job, ExecSpec::serial(), &Obs::off(), true);
    assert_eq!(result.members.len(), job.len());
    assert_eq!(result.dedup.groups, 3);
    assert_eq!(
        result.dedup.input_runs,
        3 * base().hours,
        "one input-stage run per group per hour"
    );
    assert!(result.dedup.saved_bytes > 0);

    for (i, member) in result.members.iter().enumerate() {
        let config = job.member_config(i);
        let (report, profile) = run_with_profile_on(&config, ExecSpec::serial());
        assert_profiles_identical(i, &member.profile, &profile);
        assert_eq!(
            report_fingerprint(&normalized(&member.report)),
            report_fingerprint(&report),
            "member {i} ({}) report diverged from its standalone run",
            member.spec.describe()
        );
        // Copy accounting rides outside the fingerprint.
        assert!(report.copy_bytes.is_some());
        assert_eq!(
            member.report.copy_bytes, report.copy_bytes,
            "member {i} copy accounting diverged from its standalone run"
        );
    }
}

#[test]
fn dedup_on_and_off_agree_bit_for_bit() {
    let job = mixed_job();
    let deduped = run_ensemble(&job, ExecSpec::serial(), &Obs::off(), true);
    let baseline = run_ensemble(&job, ExecSpec::serial(), &Obs::off(), false);
    assert_eq!(baseline.dedup.input_hours_deduped, 0);
    assert_eq!(baseline.dedup.saved_bytes, 0);
    for (i, (a, b)) in deduped.members.iter().zip(&baseline.members).enumerate() {
        assert_profiles_identical(i, &a.profile, &b.profile);
        assert_eq!(
            report_fingerprint(&normalized(&a.report)),
            report_fingerprint(&normalized(&b.report)),
            "member {i}: dedup changed the answer"
        );
    }
    // Only the deduped sweep reports savings on the sharing members.
    let shared_savings: u64 = deduped
        .members
        .iter()
        .filter_map(|m| m.report.dedup_saved_bytes)
        .sum();
    assert!(shared_savings > 0);
    assert_eq!(shared_savings, deduped.dedup.saved_bytes);
}
