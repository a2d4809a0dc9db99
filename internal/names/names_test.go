package names

import (
	"strings"
	"testing"
)

func TestDeterministic(t *testing.T) {
	if FromAddress("abc") != FromAddress("abc") {
		t.Fatal("same address produced different names")
	}
}

func TestThreeWords(t *testing.T) {
	for _, addr := range []string{"a", "hotspot-1", "sim1XYZ", ""} {
		name := FromAddress(addr)
		if parts := strings.Split(name, " "); len(parts) != 3 {
			t.Fatalf("name %q does not have three words", name)
		}
	}
}

func TestDistribution(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		seen[FromAddress(strings.Repeat("x", i%50)+string(rune('a'+i%26))+string(rune(i)))] = true
	}
	if len(seen) < 1500 {
		t.Fatalf("only %d distinct names in 2000 addresses", len(seen))
	}
}

func TestSlug(t *testing.T) {
	if Slug("Joyful Pink Skunk") != "joyful-pink-skunk" {
		t.Fatalf("slug = %q", Slug("Joyful Pink Skunk"))
	}
}

func TestCombinations(t *testing.T) {
	if n := len(adjectives) * len(colors) * len(animals); n < 100000 {
		t.Fatalf("name space too small: %d", n)
	}
}
