// Package names generates the three-word "Adjective Color Animal"
// hotspot names that Helium assigns deterministically from a hotspot's
// public key (the paper's pseudonymized examples: "Joyful Pink Skunk",
// "Striped Yellow Bird"). Names are derived by hashing the hotspot
// address, so a given hotspot always renders the same name.
package names

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
)

var adjectives = []string{
	"Joyful", "Striped", "Brave", "Quick", "Silent", "Mellow", "Rough",
	"Gentle", "Witty", "Fluffy", "Ancient", "Bright", "Curved", "Dapper",
	"Eager", "Faint", "Glorious", "Hidden", "Icy", "Jolly", "Keen",
	"Lively", "Magic", "Noisy", "Odd", "Proud", "Quiet", "Rapid",
	"Shiny", "Tiny", "Upbeat", "Vast", "Wild", "Young", "Zesty",
	"Atomic", "Boxy", "Clever", "Dizzy", "Electric", "Fancy", "Grand",
	"Humble", "Iron", "Jumpy", "Kind", "Long", "Micro", "Narrow",
	"Oblong", "Polished", "Quaint", "Rustic", "Steep", "Tart", "Urban",
	"Velvet", "Warm", "Exotic", "Zany", "Cheerful", "Docile", "Restless",
	"Sunny",
}

var colors = []string{
	"Pink", "Yellow", "Crimson", "Azure", "Emerald", "Golden", "Ivory",
	"Jade", "Lavender", "Maroon", "Navy", "Olive", "Pearl", "Ruby",
	"Sapphire", "Teal", "Umber", "Violet", "White", "Amber", "Bronze",
	"Copper", "Denim", "Ebony", "Fuchsia", "Gray", "Hazel", "Indigo",
	"Khaki", "Lime", "Magenta", "Orange", "Plum", "Rose", "Scarlet",
	"Tangerine", "Aquamarine", "Blue", "Coral", "Daffodil", "Green",
	"Honey", "Lemon", "Mauve", "Obsidian", "Peach", "Red", "Silver",
	"Taupe", "Vanilla", "Wheat", "Cherry", "Mint", "Mocha", "Onyx",
	"Paisley", "Quartz", "Rainbow", "Sand", "Tawny", "Berry", "Carbon",
	"Flaxen", "Glossy",
}

var animals = []string{
	"Skunk", "Bird", "Otter", "Badger", "Cobra", "Dolphin", "Eagle",
	"Falcon", "Gecko", "Hedgehog", "Iguana", "Jaguar", "Koala", "Lemur",
	"Mole", "Narwhal", "Ocelot", "Panda", "Quail", "Raccoon", "Seal",
	"Tapir", "Urchin", "Vulture", "Walrus", "Yak", "Zebra", "Antelope",
	"Beaver", "Chipmunk", "Dragonfly", "Elephant", "Finch", "Giraffe",
	"Hamster", "Impala", "Jellyfish", "Kangaroo", "Llama", "Mantis",
	"Newt", "Octopus", "Pelican", "Rabbit", "Sparrow", "Toad",
	"Unicorn", "Viper", "Wombat", "Swan", "Bear", "Crow", "Deer",
	"Ermine", "Fox", "Goose", "Heron", "Ibis", "Jay", "Kiwi", "Lynx",
	"Moose", "Owl", "Puma",
}

// FromAddress derives the deterministic three-word name for a hotspot
// address.
func FromAddress(address string) string {
	sum := sha256.Sum256([]byte(address))
	a := binary.BigEndian.Uint32(sum[0:4])
	c := binary.BigEndian.Uint32(sum[4:8])
	n := binary.BigEndian.Uint32(sum[8:12])
	return adjectives[a%uint32(len(adjectives))] + " " +
		colors[c%uint32(len(colors))] + " " +
		animals[n%uint32(len(animals))]
}

// Slug returns the dash-joined lower-case form used in URLs
// ("joyful-pink-skunk").
func Slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}
