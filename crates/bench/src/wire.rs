//! Bridge from the paper's workloads to the wire protocol: turn a
//! [`QueryWorkbench`] stream into the [`Request`] sequence a remote client
//! would issue, so in-process and over-the-wire runs execute the *same*
//! queries with the *same* parameters (including the polygon step cap) and
//! their counters can be compared exactly.

use crate::workloads::{QueryWorkbench, Workload};
use lsdb_server::Request;

/// The request stream for one workload, in the workbench's query order.
pub fn requests_for(wb: &QueryWorkbench, workload: Workload) -> Vec<Request> {
    let steps = wb.max_polygon_steps as u32;
    match workload {
        Workload::Point1 => wb
            .endpoints
            .iter()
            .map(|&(_, p)| Request::Incident(p))
            .collect(),
        Workload::Point2 => wb
            .endpoints
            .iter()
            .map(|&(id, p)| Request::Second { id, at: p })
            .collect(),
        Workload::NearestTwoStage => wb
            .two_stage_points
            .iter()
            .map(|&p| Request::Nearest(p))
            .collect(),
        Workload::NearestOneStage => wb
            .uniform_points
            .iter()
            .map(|&p| Request::Nearest(p))
            .collect(),
        Workload::PolygonTwoStage => wb
            .two_stage_points
            .iter()
            .map(|&p| Request::Polygon {
                at: p,
                max_steps: steps,
            })
            .collect(),
        Workload::PolygonOneStage => wb
            .uniform_points
            .iter()
            .map(|&p| Request::Polygon {
                at: p,
                max_steps: steps,
            })
            .collect(),
        Workload::Range => wb.windows.iter().map(|&w| Request::Window(w)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::IndexConfig;

    #[test]
    fn wire_streams_reproduce_in_process_workload_metrics() {
        // The whole point of the bridge: driving the server with
        // requests_for(...) must yield the totals the in-process run
        // computes. Exercised end-to-end: workbench -> requests ->
        // server -> summed reply counters == run().
        let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
            "wire-test",
            lsdb_tiger::CountyClass::Urban,
            700,
            0x11CE,
        ));
        let wb = QueryWorkbench::new(&map, 12, 7);
        let index = crate::build_index(crate::IndexKind::Pmr, &map, IndexConfig::default());

        let server = lsdb_server::Server::bind_catalog(
            "127.0.0.1:0",
            lsdb_server::Catalog::single(lsdb_core::LiveIndex::volatile(index)),
            lsdb_server::ServerConfig {
                read_timeout: std::time::Duration::from_millis(100),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // A second identical index for the in-process reference.
        let reference = crate::build_index(crate::IndexKind::Pmr, &map, IndexConfig::default());
        for w in Workload::ALL {
            let requests = requests_for(&wb, w);
            assert_eq!(requests.len(), 12, "{w:?}");
            let report = lsdb_server::run_closed_loop(addr, &requests, 3).unwrap();
            let local = wb.run(w, reference.as_ref());
            let n = report.queries as f64;
            assert_eq!(report.queries, local.queries, "{w:?}");
            assert_eq!(
                report.totals.disk.total() as f64 / n,
                local.disk_accesses,
                "{w:?}"
            );
            assert_eq!(report.totals.seg_comps as f64 / n, local.seg_comps, "{w:?}");
            assert_eq!(
                report.totals.bbox_comps as f64 / n,
                local.bbox_comps,
                "{w:?}"
            );
            assert_eq!(report.result_items as f64 / n, local.avg_result, "{w:?}");
        }

        lsdb_server::Client::connect(addr)
            .unwrap()
            .shutdown()
            .unwrap();
        handle.join().unwrap();
    }
}
