// Package padico is a Go reproduction of PadicoTM, the grid
// communication framework of:
//
//	A. Denis, C. Pérez, T. Priol. "Network Communications in Grid
//	Computing: At a Crossroads Between Parallel and Distributed
//	Worlds". IPDPS 2004.
//
// The framework decouples communication middleware (MPI, CORBA, Java)
// from networking resources (Myrinet SANs, Ethernet LANs, WANs) through
// a dual-abstraction, three-layer model — arbitration (NetAccess:
// MadIO + SysIO), abstraction (VLink for the distributed paradigm,
// Circuit for the parallel one) and personalities (thin standard-API
// wrappers) — so that any middleware runs efficiently on any network,
// several at the same time.
//
// Everything runs on a deterministic virtual-time simulation of the
// paper's testbed (internal/vtime, internal/netsim): see DESIGN.md for
// the substitution table; `go run ./cmd/padico-bench` prints the
// reproduced results, the BENCH_N.json sidecars record them per PR, and
// benchmarks/README.md describes what the simulator itself costs.
//
// Entry points:
//
//   - internal/session is the front door: a per-grid session.Manager
//     whose Open(src, dst, QoS options) consults the selector and
//     hands back one paradigm-agnostic Channel — local pipe, cached
//     SAN Circuit or (striped/ciphered/compressed) VLink stack —
//     with message and stream views plus the Decision taken;
//   - internal/grid builds complete testbeds (Cluster, TwoClusterWAN,
//     LossyPair) with a PadicoTM runtime per node; Grid.Session()
//     returns the testbed's manager and Grid.Open is its shorthand;
//   - internal/selector is the knowledge base the manager consults:
//     Select(topo, Request{Src, Dst, QoS}) per channel, Classify for
//     the coarse path class;
//   - internal/group layers grid-wide hierarchical collectives on the
//     session layer: a deterministic two-tier spanning tree (elected
//     site leaders across the WAN, binomial fan-out inside each
//     cluster) carrying Multicast/Reduce/Barrier/Gather with chunked
//     pipelining (Grid.NewGroup wires one onto a testbed);
//   - internal/datagrid layers a replicated data grid on the session
//     layer: ring placement across clusters and bulk transfers that
//     are a pure chunk pump over session channels; Put fan-out rides
//     group.Multicast when the tree saves WAN crossings
//     (Grid.NewDataGrid wires it onto a testbed);
//   - internal/bench regenerates every table and figure of the paper,
//     plus the data-grid replication experiment;
//   - examples/ holds two runnable scenarios: quickstart (MPI and
//     CORBA at once on one cluster) and failover (a data grid losing a
//     node mid-transfer and repairing itself);
//   - cmd/padico-bench prints the full evaluation, cmd/padico-info the
//     topology/selector view.
package padico

// Version identifies this reproduction.
const Version = "1.0.0"
