package metrics

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolStackImportsNoMetrics keeps the simulator and protocol
// layers free of the registry: they count in plain fields of their own,
// and a metered run harvests those when it ends. A live handle creeping
// back into one of them would count a fact twice.
func TestProtocolStackImportsNoMetrics(t *testing.T) {
	const self = "repro/internal/metrics"
	for _, pkg := range []string{"sim", "seg", "netem", "tcp", "mptcp"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files found (%v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range af.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == self {
					t.Errorf("%s imports %s", f, self)
				}
			}
		}
	}
}
