//! One serving price: admission at submit, the report a worker stamps
//! and the fabric router's routing cost are the same number, bit for
//! bit, for every machine, node count and requested layout of a family.

use airshed::core::driver::run_with_profile_on;
use airshed::core::{ChemLayout, ExecSpec, PerfModel, SimConfig};
use airshed::fabric::{Router, RouterConfig};
use airshed::machine::MachineProfile;
use airshed::server::{ScenarioRequest, ScenarioServer, ServerConfig, SubmitOutcome};

/// The tiny family the router's metrics golden is calibrated on.
fn family() -> SimConfig {
    let mut c = SimConfig::test_tiny(4, 1);
    c.start_hour = 12;
    c
}

fn server(budget_seconds: Option<f64>) -> ScenarioServer {
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        budget_seconds,
        exec: ExecSpec::serial(),
        ..Default::default()
    });
    // The first job of the family is admitted unpriced and calibrates it.
    server
        .submit(ScenarioRequest::new(family()))
        .into_handle()
        .expect("first of its family: admitted")
        .wait()
        .expect("the calibrating run completes");
    server
}

#[test]
fn admission_the_report_and_the_router_price_a_job_alike() {
    // A zero budget refuses every priced job, and the refusal carries
    // the price admission computed at submit.
    let admission = server(Some(0.0));
    let runner = server(None);
    let (_, profile) = run_with_profile_on(&family(), ExecSpec::serial());
    let mut router = Router::new(RouterConfig::default(), 0, &[]);
    router.add_shard("a", 1, 0);
    router.calibrate(&family(), PerfModel::from_profile(&profile));

    let machines = [
        MachineProfile::t3e(),
        MachineProfile::t3d(),
        MachineProfile::paragon(),
    ];
    let mut anchor = None;
    for machine in machines {
        for p in [2, 4, 16, 64] {
            for layout in [ChemLayout::Block, ChemLayout::Cyclic] {
                let mut config = family();
                config.machine = machine;
                config.p = p;
                let mut request = ScenarioRequest::new(config.clone());
                request.layout = layout;
                let case = format!("{} P={p} {layout}", machine.name);

                let at_submit = match admission.submit(request.clone()) {
                    SubmitOutcome::Rejected {
                        predicted_seconds, ..
                    } => predicted_seconds,
                    _ => panic!("{case}: a calibrated job over a zero budget is refused"),
                };
                let report = runner
                    .submit(request)
                    .into_handle()
                    .expect("no budget: accepted")
                    .wait()
                    .expect("the job completes");
                let stamped = report.predicted_seconds.expect("calibrated family");
                let job = router.submit(0, config, layout);
                let routed = router.job_cost(job).expect("calibrated family");

                assert_eq!(
                    at_submit.to_bits(),
                    stamped.to_bits(),
                    "{case}: {at_submit} vs {stamped}"
                );
                assert_eq!(
                    at_submit.to_bits(),
                    routed.to_bits(),
                    "{case}: {at_submit} vs {routed}"
                );
                if machine == MachineProfile::t3e() && p == 4 && layout == ChemLayout::Block {
                    anchor = Some(at_submit);
                }
            }
        }
    }
    // The price tests/golden/metrics/router.prom records for this job.
    assert_eq!(
        format!("{:.6}", anchor.expect("the T3E P=4 BLOCK case")),
        "1.179380"
    );
    admission.shutdown();
    runner.shutdown();
}
