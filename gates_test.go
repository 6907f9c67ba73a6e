package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGateTestsExist keeps the CI gates honest. Each race gate in the
// Makefile selects tests with a -run pattern over a package list, so a
// rename that stops the pattern from matching would turn the gate into a
// silent no-op. Every package a gate lists must declare at least one test
// the pattern selects, and scripts/ci.sh must run every gate through make.
func TestGateTestsExist(t *testing.T) {
	gates := makeGates(t)
	if len(gates) == 0 {
		t.Fatal("no race gates found in the Makefile")
	}
	ci, err := os.ReadFile(filepath.Join("scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	made := map[string]bool{}
	for _, line := range strings.Split(string(ci), "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && fields[0] == "make" {
			for _, f := range fields[1:] {
				made[f] = true
			}
		}
	}

	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	for name, recipe := range gates {
		if !made[name] {
			t.Errorf("gate %s is not run by scripts/ci.sh", name)
		}
		pattern, err := regexp.Compile(runFlag.FindStringSubmatch(recipe)[1])
		if err != nil {
			t.Errorf("gate %s: %v", name, err)
			continue
		}
		for _, pkg := range strings.Fields(recipe) {
			if !strings.HasPrefix(pkg, "./") {
				continue
			}
			files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
			matched := false
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
					matched = matched || pattern.MatchString(m[1])
				}
			}
			if !matched {
				t.Errorf("gate %s: -run %q selects no test in %s", name, pattern, pkg)
			}
		}
	}
}

// makeGates returns the recipe of every Makefile target that runs tests
// under the race detector with a -run pattern, keyed by target name.
func makeGates(t *testing.T) map[string]string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	target := regexp.MustCompile(`^([\w-]+):`)
	recipes := map[string]string{}
	current := ""
	for _, line := range strings.Split(string(mk), "\n") {
		if m := target.FindStringSubmatch(line); m != nil {
			current = m[1]
		} else if strings.HasPrefix(line, "\t") && current != "" {
			recipes[current] += line
		}
	}
	gates := map[string]string{}
	for name, recipe := range recipes {
		if strings.Contains(recipe, " -race ") && strings.Contains(recipe, "-run '") {
			gates[name] = recipe
		}
	}
	return gates
}
