package explore

import (
	"fmt"
	"os"
	"testing"
)

func TestGenFixture(t *testing.T) {
	if os.Getenv("GEN_FIXTURE") == "" {
		t.Skip("fixture generator")
	}
	r := minimizedRepro(t, exploreWithWorkers(t, 0).Found[0])
	path, err := r.Save("../../cmd/faultsim/testdata")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote", path)
}
