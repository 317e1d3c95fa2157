// The per-query shortest route: a Dijkstra from `from` that stops as soon
// as `to` leaves the frontier. This is how trips were routed before the
// per-source shortest-path trees, kept as their bitwise oracle: with
// strictly positive segment costs a node's predecessor is final once it is
// popped, so the full tree walked back from `to` must give the same
// segments.

#ifndef LIRA_TESTS_ORACLE_EARLY_EXIT_ROUTE_H_
#define LIRA_TESTS_ORACLE_EARLY_EXIT_ROUTE_H_

#include "lira/common/status.h"
#include "lira/roadnet/road_network.h"
#include "lira/roadnet/shortest_path.h"

namespace lira::oracle {

/// ShortestRoute by one Dijkstra that exits when `to` is popped: the same
/// relaxation rule and (dist, id) frontier order as ShortestPathTree.
StatusOr<Route> EarlyExitShortestRoute(const RoadNetwork& network,
                                       IntersectionId from, IntersectionId to);

}  // namespace lira::oracle

#endif  // LIRA_TESTS_ORACLE_EARLY_EXIT_ROUTE_H_
