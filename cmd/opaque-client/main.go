// Command opaque-client submits one path query through a networked OPAQUE
// obfuscator and prints the returned path.
//
// Usage:
//
//	opaque-client -obfuscator localhost:7002 -user alice -source 123 -dest 4567 -fs 2 -ft 3
package main

import (
	"flag"
	"fmt"
	"log"

	"opaque/internal/client"
	"opaque/internal/obfuscate"
	"opaque/internal/roadnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opaque-client: ")

	var (
		obfuscatorAddr = flag.String("obfuscator", "localhost:7002", "obfuscator address")
		user           = flag.String("user", "anonymous", "user identifier (seen only by the obfuscator)")
		source         = flag.Int("source", -1, "source node id")
		dest           = flag.Int("dest", -1, "destination node id")
		fs             = flag.Int("fs", 2, "desired source-set size fS")
		ft             = flag.Int("ft", 2, "desired destination-set size fT")
		profile        = flag.String("profile", "", `answer under a named server-side weight profile (e.g. "am-peak") instead of the live metric`)
		verbose        = flag.Bool("v", false, "print the full node sequence of the path")
	)
	flag.Parse()

	if *source < 0 || *dest < 0 {
		log.Fatal("both -source and -dest node ids are required")
	}

	c, err := client.Dial(*user, *obfuscatorAddr, client.WithProtection(*fs, *ft), client.WithProfile(*profile))
	if err != nil {
		log.Fatalf("connecting to obfuscator: %v", err)
	}
	defer c.Close()

	res, err := c.Query(roadnet.NodeID(*source), roadnet.NodeID(*dest))
	if err != nil {
		log.Fatalf("query failed: %v", err)
	}
	if !res.Found {
		fmt.Printf("no path from %d to %d\n", *source, *dest)
		return
	}
	fmt.Printf("path %d -> %d: %d edges, cost %.1f (breach probability %.4f)\n",
		*source, *dest, res.Path.Len(), res.Path.Cost, obfuscate.BreachProbability(*fs, *ft))
	if *verbose {
		fmt.Println(res.Path.Nodes)
	}
}
