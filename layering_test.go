package ebslab

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The serving stack, lowest layer first: the RPC protocol, the consensus
// core, the distributed control plane and the gateway.
const (
	netblockPkg  = modulePath + "/internal/netblock"
	consensusPkg = modulePath + "/internal/consensus"
	fabricPkg    = modulePath + "/internal/fabric"
	gatewayPkg   = modulePath + "/internal/gateway"
)

var servingStack = []string{netblockPkg, consensusPkg, fabricPkg, gatewayPkg}

// TestServingStackLayering holds the serving stack to its layering, counting
// every transitive dependency of non-test code: no package outside the stack,
// its *test harnesses and cmd/* depends on any stack package; netblock and
// consensus depend on neither fabric nor gateway; fabric, which has one
// coordinator and no replicated log, depends on neither gateway nor
// consensus; and gateway, which runs every study in-process, depends on
// neither fabric nor consensus. A change that wires one layer into another
// must edit this rule where the diff shows it.
func TestServingStackLayering(t *testing.T) {
	m := loadModule(t)
	for _, v := range m.layerViolations() {
		t.Error(v)
	}

	// Mutant: gateway importing the fabric is the violation the rule exists
	// to catch, reported with the path it takes.
	m.addSource(t, gatewayPkg, "mutant.go", `package gateway

import "ebslab/internal/fabric"

var _ = fabric.NewLoopback
`)
	want := gatewayPkg + " depends on " + fabricPkg + " (" + gatewayPkg + " -> " + fabricPkg + ")"
	if got := m.layerViolations(); !slices.Contains(got, want) {
		t.Errorf("gateway importing the fabric: violations %q, want one to be %q", got, want)
	}

	// Mutant: the fabric importing consensus again, as its coordinator once
	// did to replicate the shard ledger.
	m.addSource(t, fabricPkg, "mutant.go", `package fabric

import "ebslab/internal/consensus"

var _ = consensus.NewNode
`)
	want = fabricPkg + " depends on " + consensusPkg + " (" + fabricPkg + " -> " + consensusPkg + ")"
	if got := m.layerViolations(); !slices.Contains(got, want) {
		t.Errorf("fabric importing consensus: violations %q, want one to be %q", got, want)
	}
}

// forbiddenDeps names the stack packages pkg must not depend on.
func forbiddenDeps(pkg string) []string {
	switch pkg {
	case netblockPkg, consensusPkg:
		return []string{fabricPkg, gatewayPkg}
	case fabricPkg:
		return []string{gatewayPkg, consensusPkg}
	case gatewayPkg:
		return []string{fabricPkg, consensusPkg}
	}
	if strings.HasPrefix(pkg, modulePath+"/cmd/") {
		return nil
	}
	for _, s := range servingStack {
		if strings.HasPrefix(pkg, s+"/") && strings.HasSuffix(pkg, "test") {
			return nil // a stack package's test harness
		}
	}
	return servingStack
}

// layerViolations lists, sorted, every forbidden dependency of a module
// package with one import path that reaches it.
func (m *module) layerViolations() []string {
	var out []string
	for pkg := range m.dirs {
		forbidden := forbiddenDeps(pkg)
		if len(forbidden) == 0 {
			continue
		}
		via := m.importPaths(pkg)
		for _, f := range forbidden {
			if _, ok := via[f]; !ok {
				continue
			}
			chain := f
			for p := f; p != pkg; p = via[p] {
				chain = via[p] + " -> " + chain
			}
			out = append(out, fmt.Sprintf("%s depends on %s (%s)", pkg, f, chain))
		}
	}
	sort.Strings(out)
	return out
}

// importPaths walks the module packages pkg's non-test files import,
// transitively, and maps each one reached to the package that imported it
// first on a shortest path from pkg.
func (m *module) importPaths(pkg string) map[string]string {
	via := map[string]string{}
	queue := []string{pkg}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, f := range m.files[p] {
			for _, spec := range f.Imports {
				dep, err := strconv.Unquote(spec.Path.Value)
				if _, inModule := m.dirs[dep]; err != nil || !inModule || dep == pkg {
					continue
				}
				if _, seen := via[dep]; !seen {
					via[dep] = p
					queue = append(queue, dep)
				}
			}
		}
	}
	return via
}
