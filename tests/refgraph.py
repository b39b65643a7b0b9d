"""Per-source breadth-first diameter, the reference for ``analysis.diameter``.

``analysis.diameter`` grows the reach bitsets of every source together, one
round per depth.  This reference runs one breadth-first search from each
node over its postset and takes the longest distance any search finds.
"""

from collections import deque


def bfs_diameter(net):
    """Longest shortest directed path, in edges, over reachable node pairs."""
    best = 0
    for source in net.places + net.transitions:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in net.postset(node):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        best = max(best, max(dist.values()))
    return best
