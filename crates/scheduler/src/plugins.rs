//! Filter and score plugins.
//!
//! Plugins see the pod's resource request and a [`NodeView`]: the node
//! plus *shadow* state reflecting the decisions already taken in the
//! current scheduling cycle. Scores are normalized to `[0, 1]`; the
//! framework combines them by weight.
//!
//! Plugins see nothing of the pod but its request (and, through
//! [`NodeView::app_pods`], its application). That narrow input is what
//! lets the feasibility index memoise one score per node for every pod
//! of the same `(request, app)` shape.

use evolve_sim::Node;
use evolve_types::{Resource, ResourceVec};

/// A node as seen mid-cycle: real state plus shadow adjustments.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    /// The underlying node.
    pub node: &'a Node,
    /// Free capacity after this cycle's tentative placements/preemptions.
    pub free: ResourceVec,
    /// Pods of the candidate pod's application already on the node
    /// (including tentative ones).
    pub app_pods: usize,
}

impl NodeView<'_> {
    /// Shadow-allocated share per resource after hypothetically placing
    /// `request`.
    fn allocated_share_with(&self, request: &ResourceVec) -> ResourceVec {
        let allocatable = self.node.allocatable();
        (allocatable - self.free + *request).ratio(&allocatable)
    }
}

/// Feasibility check: can this pod run on this node?
pub trait FilterPlugin: Send + Sync {
    /// Plugin name for diagnostics.
    fn name(&self) -> &'static str;
    /// `true` when the node can host a pod requesting `request`.
    fn feasible(&self, request: &ResourceVec, view: &NodeView<'_>) -> bool;
    /// `true` when this filter is *exactly* "the node is ready and the
    /// request fits within shadow free capacity" — the predicate the
    /// feasibility index's score trees evaluate themselves. The framework
    /// only routes a cycle through the index when its leading filter
    /// certifies this; any other filter must keep the default `false`.
    fn prunes_capacity_fit(&self) -> bool {
        false
    }
}

/// Preference score in `[0, 1]`; higher is better.
pub trait ScorePlugin: Send + Sync {
    /// Plugin name for diagnostics.
    fn name(&self) -> &'static str;
    /// Scores the node for a pod requesting `request`.
    fn score(&self, request: &ResourceVec, view: &NodeView<'_>) -> f64;
}

/// Filter: node is ready and has room for the pod's request
/// (the `NodeResourcesFit` plugin).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeFits;

impl FilterPlugin for NodeFits {
    fn name(&self) -> &'static str {
        "node-fits"
    }
    fn feasible(&self, request: &ResourceVec, view: &NodeView<'_>) -> bool {
        view.node.is_ready() && request.fits_within(&view.free)
    }
    fn prunes_capacity_fit(&self) -> bool {
        true
    }
}

/// Score: prefer the emptiest node (spreading, the Kubernetes
/// `LeastAllocated` strategy) — leaves headroom for vertical scaling.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastAllocated;

impl ScorePlugin for LeastAllocated {
    fn name(&self) -> &'static str {
        "least-allocated"
    }
    fn score(&self, request: &ResourceVec, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(request);
        let mean = Resource::ALL.iter().map(|r| share[*r].clamp(0.0, 1.0)).sum::<f64>() / 4.0;
        1.0 - mean
    }
}

/// Score: prefer the fullest node (bin packing, `MostAllocated`) —
/// consolidates load to free whole nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct MostAllocated;

impl ScorePlugin for MostAllocated {
    fn name(&self) -> &'static str {
        "most-allocated"
    }
    fn score(&self, request: &ResourceVec, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(request);
        Resource::ALL.iter().map(|r| share[*r].clamp(0.0, 1.0)).sum::<f64>() / 4.0
    }
}

/// Score: prefer nodes where the post-placement allocation is *balanced*
/// across the four resources (`NodeResourcesBalancedAllocation`) — avoids
/// stranding one dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedAllocation;

impl ScorePlugin for BalancedAllocation {
    fn name(&self) -> &'static str {
        "balanced-allocation"
    }
    fn score(&self, request: &ResourceVec, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(request);
        let shares: [f64; 4] = Resource::ALL.map(|r| share[r].clamp(0.0, 1.0));
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / shares.len() as f64;
        // Std-dev of shares is at most 0.5 in [0,1]; normalize.
        1.0 - (var.sqrt() * 2.0).min(1.0)
    }
}

/// Score: spread replicas of the same application across nodes
/// (topology-spread light) — a node failure then costs one replica, not
/// all of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadApp;

impl ScorePlugin for SpreadApp {
    fn name(&self) -> &'static str {
        "spread-app"
    }
    fn score(&self, _request: &ResourceVec, view: &NodeView<'_>) -> f64 {
        1.0 / (1.0 + view.app_pods as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_types::NodeId;

    fn node(capacity: f64) -> Node {
        Node::new(NodeId::new(0), ResourceVec::splat(capacity))
    }

    fn pod(request: f64) -> ResourceVec {
        ResourceVec::splat(request)
    }

    fn view(node: &Node, free: f64, app_pods: usize) -> NodeView<'_> {
        NodeView { node, free: ResourceVec::splat(free), app_pods }
    }

    #[test]
    fn node_fits_checks_shadow_free() {
        let n = node(1000.0);
        let p = pod(100.0);
        assert!(NodeFits.feasible(&p, &view(&n, 100.0, 0)));
        assert!(!NodeFits.feasible(&p, &view(&n, 99.0, 0)));
    }

    #[test]
    fn least_allocated_prefers_empty() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = LeastAllocated.score(&p, &view(&n, 950.0, 0));
        let full = LeastAllocated.score(&p, &view(&n, 100.0, 0));
        assert!(empty > full);
    }

    #[test]
    fn most_allocated_prefers_full() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = MostAllocated.score(&p, &view(&n, 950.0, 0));
        let full = MostAllocated.score(&p, &view(&n, 100.0, 0));
        assert!(full > empty);
    }

    #[test]
    fn least_and_most_are_complementary() {
        let n = node(1000.0);
        let p = pod(50.0);
        let v = view(&n, 400.0, 0);
        let sum = LeastAllocated.score(&p, &v) + MostAllocated.score(&p, &v);
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_allocation_penalizes_skew() {
        let n = node(1000.0);
        let p = pod(1.0);
        // Balanced: all dimensions equally free.
        let balanced = BalancedAllocation.score(&p, &view(&n, 400.0, 0));
        // Skewed: CPU nearly exhausted, others empty.
        let skew_view =
            NodeView { node: &n, free: ResourceVec::new(10.0, 950.0, 950.0, 950.0), app_pods: 0 };
        let skewed = BalancedAllocation.score(&p, &skew_view);
        assert!(balanced > skewed, "balanced {balanced} skewed {skewed}");
    }

    #[test]
    fn balanced_allocation_is_bit_identical_to_the_vec_form() {
        let n = node(1000.0);
        for (free, request) in [
            (ResourceVec::new(10.0, 950.0, 333.3, 0.0), ResourceVec::new(1.0, 7.5, 0.1, 0.0)),
            (ResourceVec::new(400.0, 123.4, 950.0, 17.0), ResourceVec::new(3.3, 1.0, 9.9, 0.7)),
            (ResourceVec::splat(950.0), ResourceVec::splat(2000.0)),
        ] {
            let v = NodeView { node: &n, free, app_pods: 0 };
            let share = v.allocated_share_with(&request);
            let shares: Vec<f64> =
                Resource::ALL.iter().map(|r| share[*r].clamp(0.0, 1.0)).collect();
            let mean = shares.iter().sum::<f64>() / shares.len() as f64;
            let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / shares.len() as f64;
            let reference = 1.0 - (var.sqrt() * 2.0).min(1.0);
            assert_eq!(BalancedAllocation.score(&request, &v).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn spread_app_prefers_fresh_nodes() {
        let n = node(1000.0);
        let p = pod(1.0);
        assert!(
            SpreadApp.score(&p, &view(&n, 900.0, 0)) > SpreadApp.score(&p, &view(&n, 900.0, 3))
        );
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let n = node(1000.0);
        let p = pod(500.0);
        for free in [0.0, 100.0, 500.0, 950.0] {
            for plugin in [
                &LeastAllocated as &dyn ScorePlugin,
                &MostAllocated,
                &BalancedAllocation,
                &SpreadApp,
            ] {
                let s = plugin.score(&p, &view(&n, free, 1));
                assert!((0.0..=1.0).contains(&s), "{} gave {s}", plugin.name());
            }
        }
    }
}
