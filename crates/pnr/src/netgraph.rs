//! A placement-oriented view of a mapped netlist.
//!
//! [`NetGraph`] extracts from a fan-out-legalized [`MappedNetwork`] the
//! data physical design needs: an explicit edge list, ASAP/ALAP row
//! bounds, and the minimal layout dimensions implied by the netlist.

use fcn_logic::techmap::{MappedId, MappedNetwork};
use fcn_logic::GateKind;

/// A directed connection between two mapped nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Dense edge index.
    pub(crate) id: usize,
    /// Driving node.
    pub(crate) source: MappedId,
    /// Output port of the driver.
    pub(crate) source_port: u8,
    /// Consuming node.
    pub(crate) target: MappedId,
    /// Input port of the consumer.
    pub(crate) target_port: u8,
}

/// Placement-oriented graph data derived from a mapped netlist.
#[derive(Debug, Clone)]
pub struct NetGraph {
    /// The underlying netlist.
    pub(crate) network: MappedNetwork,
    /// All signal edges.
    pub edges: Vec<Edge>,
    /// Outgoing edge ids per node.
    pub(crate) out_edges: Vec<Vec<usize>>,
    /// Incoming edge ids per node.
    pub(crate) in_edges: Vec<Vec<usize>>,
    /// Earliest possible row per node (PIs at 0).
    pub(crate) asap: Vec<u32>,
}

/// An error constructing a [`NetGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetGraphError {
    /// The netlist still contains multi-fanout outputs; run
    /// [`MappedNetwork::legalize_fanout`] first.
    FanoutNotLegalized,
    /// The netlist has no primary outputs.
    NoOutputs,
    /// A primary input drives nothing; a floating input pad has no
    /// physical representation on a tile.
    DanglingInput(String),
}

impl core::fmt::Display for NetGraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetGraphError::FanoutNotLegalized => {
                f.write_str("netlist has multi-fanout outputs; legalize fan-out first")
            }
            NetGraphError::NoOutputs => f.write_str("netlist has no primary outputs"),
            NetGraphError::DanglingInput(name) => {
                write!(f, "primary input '{name}' drives nothing")
            }
        }
    }
}

impl std::error::Error for NetGraphError {}

impl NetGraph {
    /// Builds the graph view of a fan-out-legalized netlist.
    ///
    /// # Errors
    ///
    /// Fails if any output port drives more than one consumer or the
    /// netlist has no primary outputs.
    pub fn new(network: MappedNetwork) -> Result<Self, NetGraphError> {
        if !network.fanout_violations().is_empty() {
            return Err(NetGraphError::FanoutNotLegalized);
        }
        if network.primary_outputs().is_empty() {
            return Err(NetGraphError::NoOutputs);
        }
        let n = network.num_nodes();
        let mut edges = Vec::new();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for id in network.node_ids() {
            for (port, f) in network.node(id).fanins.iter().enumerate() {
                let e = Edge {
                    id: edges.len(),
                    source: f.node,
                    source_port: f.output,
                    target: id,
                    target_port: port as u8,
                };
                out_edges[f.node.index()].push(e.id);
                in_edges[id.index()].push(e.id);
                edges.push(e);
            }
        }
        // Out-edges must be ordered by output port (consumers appear in
        // arbitrary order), so that layout output ports line up with the
        // netlist's port numbering.
        for list in &mut out_edges {
            list.sort_by_key(|&e| edges[e].source_port);
        }
        for pi in network.primary_inputs() {
            if out_edges[pi.index()].is_empty() {
                let name = network.node(pi).name.clone().unwrap_or_default();
                return Err(NetGraphError::DanglingInput(name));
            }
        }
        let mut asap = vec![0u32; n];
        for id in network.node_ids() {
            let max_in = network
                .node(id)
                .fanins
                .iter()
                .map(|f| asap[f.node.index()] + 1)
                .max();
            asap[id.index()] = max_in.unwrap_or(0);
        }
        Ok(NetGraph {
            network,
            edges,
            out_edges,
            in_edges,
            asap,
        })
    }

    /// Latest possible row per node for a layout of `height` rows
    /// (POs pinned to the last row). Returns `None` exactly when
    /// `height` is smaller than [`NetGraph::min_height`].
    pub(crate) fn alap(&self, height: u32) -> Option<Vec<u32>> {
        if height < self.min_height() {
            return None;
        }
        let n = self.network.num_nodes();
        let mut alap = vec![height - 1; n];
        for id in self
            .network
            .node_ids()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            let node = self.network.node(id);
            if node.kind == GateKind::Po {
                alap[id.index()] = height - 1;
            } else {
                let min_out = self.out_edges[id.index()]
                    .iter()
                    .map(|&e| alap[self.edges[e].target.index()])
                    .min();
                if let Some(m) = min_out {
                    // Each consumer, visited before its driver, has
                    // ALAP ≥ ASAP ≥ 1.
                    debug_assert!(m > 0, "a consumer's ALAP row is at least 1");
                    alap[id.index()] = m - 1;
                }
            }
            // Every path through a node ends at a sink no deeper than
            // `min_height − 1`, so the slack is never negative.
            debug_assert!(
                alap[id.index()] >= self.asap[id.index()],
                "ALAP below ASAP at height {height} >= min_height"
            );
        }
        Some(alap)
    }

    /// Minimal layout height in rows: the longest path in nodes, which
    /// ends at a PO (or at a gate that drives nothing). Every height from
    /// here on has an ALAP schedule.
    pub(crate) fn min_height(&self) -> u32 {
        self.asap.iter().max().map_or(1, |&a| a + 1)
    }

    /// Minimal layout width in tiles: PIs share row 0 and POs share the
    /// last row, so the width must accommodate the larger pad set.
    pub(crate) fn min_width(&self) -> u32 {
        (self.network.primary_inputs().len() as u32)
            .max(self.network.primary_outputs().len() as u32)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcn_logic::network::Xag;
    use fcn_logic::techmap::{map_xag, MapOptions};

    fn adder_graph() -> NetGraph {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                legalize_fanout: true,
            },
        )
        .expect("mappable");
        NetGraph::new(net).expect("legalized")
    }

    #[test]
    fn edges_connect_ports() {
        let g = adder_graph();
        assert!(!g.edges.is_empty());
        for e in &g.edges {
            assert!(g.out_edges[e.source.index()].contains(&e.id));
            assert!(g.in_edges[e.target.index()].contains(&e.id));
        }
    }

    #[test]
    fn asap_respects_topology() {
        let g = adder_graph();
        for e in &g.edges {
            assert!(g.asap[e.target.index()] > g.asap[e.source.index()]);
        }
        for pi in g.network.primary_inputs() {
            assert_eq!(g.asap[pi.index()], 0);
        }
    }

    #[test]
    fn alap_respects_asap_and_height() {
        let g = adder_graph();
        let h = g.min_height();
        let alap = g.alap(h).expect("feasible at min height");
        for id in g.network.node_ids() {
            assert!(alap[id.index()] >= g.asap[id.index()]);
        }
        // Too small a height is infeasible.
        assert!(g.alap(h - 1).is_none());
        // Extra height adds slack everywhere except the pinned pads.
        let alap2 = g.alap(h + 2).expect("taller is feasible");
        for po in g.network.primary_outputs() {
            assert_eq!(alap2[po.index()], h + 1);
        }
    }

    #[test]
    fn min_width_covers_pads() {
        let g = adder_graph();
        assert_eq!(g.min_width(), 2);
    }

    #[test]
    fn out_edges_are_ordered_by_source_port() {
        // A half adder's consumers appear in arbitrary node order; the
        // out-edge list must still be sorted by output port.
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        // Register carry before sum so consumer order opposes port order.
        xag.primary_output("c", c);
        xag.primary_output("s", s);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: true,
                legalize_fanout: true,
            },
        )
        .expect("mappable");
        let g = NetGraph::new(net).expect("legalized");
        for id in g.network.node_ids() {
            let ports: Vec<u8> = g.out_edges[id.index()]
                .iter()
                .map(|&e| g.edges[e].source_port)
                .collect();
            let mut sorted = ports.clone();
            sorted.sort_unstable();
            assert_eq!(ports, sorted, "node {id:?}");
        }
    }

    #[test]
    fn dangling_input_is_rejected() {
        let mut net = MappedNetwork::new();
        let _unused = net.add_node(fcn_logic::GateKind::Pi, vec![], Some("a".into()));
        let used = net.add_node(fcn_logic::GateKind::Pi, vec![], Some("b".into()));
        net.add_node(
            fcn_logic::GateKind::Po,
            vec![fcn_logic::techmap::MappedSignal {
                node: used,
                output: 0,
            }],
            Some("f".into()),
        );
        assert_eq!(
            NetGraph::new(net).unwrap_err(),
            NetGraphError::DanglingInput("a".into())
        );
    }

    #[test]
    fn unlegalized_network_is_rejected() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let s = xag.xor(a, b);
        let c = xag.and(a, b);
        xag.primary_output("s", s);
        xag.primary_output("c", c);
        let net = map_xag(
            &xag,
            MapOptions {
                extract_half_adders: false,
                legalize_fanout: false,
            },
        )
        .expect("mappable");
        assert_eq!(
            NetGraph::new(net).unwrap_err(),
            NetGraphError::FanoutNotLegalized
        );
    }
}
