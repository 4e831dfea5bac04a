package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseExperimentList pins the one parser behind bhsweep -figs and
// bhserve -fleet: "all" is the catalogue, a list keeps its order and
// tolerates spaces, and an unknown name fails naming itself.
func TestParseExperimentList(t *testing.T) {
	all, err := ParseExperimentList("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Experiments()) || all[0] != Experiments()[0].Name {
		t.Fatalf("all = %v, want the catalogue in order", all)
	}
	got, err := ParseExperimentList("scenarios, 8,table1")
	if want := []string{"scenarios", "8", "table1"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("list = %v, %v; want %v", got, err, want)
	}
	for _, bad := range []string{"8,fig9", "", "all,8"} {
		if _, err := ParseExperimentList(bad); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("ParseExperimentList(%q) = %v, want an unknown-experiment error", bad, err)
		}
	}
}
