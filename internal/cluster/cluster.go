// Package cluster turns lagraphd into a leader/follower cluster. The
// design cashes in what the durable store already provides: the
// per-graph, version-stamped WAL is a replication log, and the binary
// checkpoint files are bootstrap snapshots. A leader serves both over
// three read-only endpoints; followers bootstrap from the checkpoint,
// then continuously tail the WAL and apply batches through the same
// stream.Apply path that produced them — publishing the *exact leader
// versions*, so the job/result-cache key (graph, version, algorithm,
// params) means the same thing on every node.
//
// Topology is static: a `-peers` list names every node, and a
// consistent-hash ring over it places each graph name on an owning node
// for reads, so read traffic fans out across followers while all writes
// go to the single leader. Followers answer writes with 421 (Misdirected
// Request) naming the leader.
//
// Consistency model: per-graph linearized writes (one leader, one WAL),
// bounded-staleness reads (followers lag by at most the poll interval
// plus apply time, observable per graph as replication_lag_batches).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Role is a node's cluster role.
type Role string

const (
	// RoleNone is single-node operation: no replication surface, no
	// routing, wire-identical to a daemon built before this package.
	RoleNone Role = ""
	// RoleLeader serves writes and the replication surface.
	RoleLeader Role = "leader"
	// RoleFollower replicates from the leader and serves reads.
	RoleFollower Role = "follower"
)

// Config describes one node's place in the cluster.
type Config struct {
	// Role selects leader or follower. RoleNone disables clustering.
	Role Role
	// Self is this node's advertised address ("host:port"), how peers
	// reach it and how it recognizes itself in Peers.
	Self string
	// Leader is the leader's address. Required on followers; on the
	// leader it defaults to Self.
	Leader string
	// Peers is the static membership list ("host:port" each) the
	// consistent-hash ring is built over. Defaults to {Self} ∪ {Leader}.
	Peers []string
	// Poll is the follower's replication poll interval (default 250ms).
	Poll time.Duration
}

// Validate normalizes the config and reports what a daemon cannot run
// with.
func (c *Config) Validate() error {
	switch c.Role {
	case RoleNone:
		return nil
	case RoleLeader, RoleFollower:
	default:
		return fmt.Errorf("cluster: unknown role %q (want leader or follower)", c.Role)
	}
	if c.Self == "" {
		return errors.New("cluster: -advertise (self address) is required in cluster mode")
	}
	if c.Role == RoleFollower && c.Leader == "" {
		return errors.New("cluster: followers need -leader")
	}
	if c.Role == RoleLeader && c.Leader == "" {
		c.Leader = c.Self
	}
	if c.Role == RoleLeader && c.Leader != c.Self {
		return fmt.Errorf("cluster: this node is the leader but -leader names %s", c.Leader)
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	// Membership always contains self and the leader, deduplicated and
	// sorted so every node builds the identical ring from the same flags.
	set := map[string]bool{c.Self: true, c.Leader: true}
	for _, p := range c.Peers {
		if p = strings.TrimSpace(p); p != "" {
			set[p] = true
		}
	}
	c.Peers = c.Peers[:0]
	for p := range set {
		c.Peers = append(c.Peers, p)
	}
	sort.Strings(c.Peers)
	return nil
}

// ParsePeers splits a comma-separated -peers flag value.
func ParsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
